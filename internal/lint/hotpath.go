package lint

import (
	"go/ast"
	"go/types"
)

// Hotpath enforces allocation and formatting hygiene in functions whose
// doc comment carries a "texlint:hotpath" marker. These are the per-texel
// functions — the address sink and the L1/L2/TLB lookup paths — executed
// hundreds of millions of times per run; a stray fmt call or closure
// allocation there dominates the simulation wall-clock.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid fmt, closures, interface conversions and dynamic panics in texlint:hotpath functions",
	Run:  runHotpath,
}

// HotpathMarker is the doc-comment marker naming a function hot.
const HotpathMarker = "texlint:hotpath"

func runHotpath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Pkg.Info.Defs[fn.Name].(*types.Func); ok && pass.Facts.Hot[obj] {
				checkHotBody(pass, fn)
			}
		}
	}
}

func checkHotBody(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path %s allocates a closure", name)
			return false // the literal's body is not the hot path itself
		case *ast.TypeAssertExpr:
			if n.Type != nil { // exclude type switches' x.(type)
				pass.Reportf(n.Pos(), "hot path %s performs an interface type assertion", name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, name, n)
		case *ast.TypeSwitchStmt:
			pass.Reportf(n.Pos(), "hot path %s performs an interface type switch", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hot path %s defers a call", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hot path %s spawns a goroutine", name)
		}
		return true
	})
}

func checkHotCall(pass *Pass, name string, call *ast.CallExpr) {
	info := pass.Pkg.Info
	// Any fmt call: Sprintf and friends allocate and reflect.
	if p := calleePkgPath(info, call); p == "fmt" {
		if obj := calleeObj(info, call); obj != nil {
			pass.Reportf(call.Pos(), "hot path %s calls fmt.%s", name, obj.Name())
		}
		return
	}
	// panic with a non-constant argument: building the value (fmt.Sprintf,
	// concatenation, boxing an error) costs on the fast path even though
	// the panic itself never fires on correct input.
	if isBuiltin(info, call, "panic") && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
			pass.Reportf(call.Pos(), "hot path %s panics with a non-constant argument", name)
		}
		return
	}
	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				pass.Reportf(call.Pos(), "hot path %s converts %s to interface %s",
					name, at, tv.Type)
			}
		}
	}
}
