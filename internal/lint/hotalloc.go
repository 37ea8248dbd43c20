package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc is the texvet allocation analyzer. Where hotpath polices the
// annotated function bodies themselves, hotalloc closes the call tree:
// it builds the package's static call graph, computes every function
// reachable from a hot-annotated root (texlint:hotpath), and
// reports allocation sites anywhere in that set — append, make, new,
// closure creation, explicit or implicit interface boxing, and
// non-constant string concatenation. Each of these costs a heap visit (or
// at best a stack spill) on a path executed hundreds of millions of times
// per run.
//
// Cross-package reachability is enforced by annotation closure: a call
// from hot code to a function in another module package is only allowed
// when the callee is itself annotated hot, so each package's analysis
// composes into whole-module coverage. Calls through interfaces cannot be
// resolved statically and are reported so they are either devirtualized
// or explicitly waived.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation sites reachable from hot-annotated functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	info := pass.Pkg.Info

	// Collect declared functions and the annotated roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = fn
			if pass.Facts.Hot[obj] {
				roots = append(roots, obj)
			}
		}
	}
	if len(roots) == 0 {
		return
	}

	// Breadth-first closure over in-package static calls.
	reachable := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if reachable[fn] {
			continue
		}
		reachable[fn] = true
		decl := decls[fn]
		if decl == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, _ := calleeObj(info, call).(*types.Func)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if callee.Pkg() == pass.Pkg.Types {
				if _, declared := decls[callee]; declared && !reachable[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	for fn := range reachable {
		decl := decls[fn]
		if decl == nil {
			continue
		}
		checkHotAllocBody(pass, fn, decl)
	}
}

func checkHotAllocBody(pass *Pass, fn *types.Func, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	name := fn.Name()
	annotated := pass.Facts.Hot[fn]
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// hotpath already reports closures in annotated bodies; only
			// the reachable-but-unannotated tail is new information.
			if !annotated {
				pass.Reportf(n.Pos(),
					"%s is reachable from a hot path and allocates a closure", name)
			}
			return false // the literal runs at call time, not here
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := info.TypeOf(n).(*types.Basic); ok && t.Info()&types.IsString != 0 {
					if tv, ok := info.Types[n]; !ok || tv.Value == nil {
						pass.Reportf(n.Pos(),
							"%s is reachable from a hot path and concatenates strings", name)
					}
				}
			}
		case *ast.CallExpr:
			checkHotAllocCall(pass, fn, name, annotated, n)
		}
		return true
	})
}

func checkHotAllocCall(pass *Pass, fn *types.Func, name string, annotated bool, call *ast.CallExpr) {
	info := pass.Pkg.Info
	switch {
	case isBuiltin(info, call, "append"):
		pass.Reportf(call.Pos(), "%s is reachable from a hot path and calls append", name)
		return
	case isBuiltin(info, call, "make"):
		pass.Reportf(call.Pos(), "%s is reachable from a hot path and calls make", name)
		return
	case isBuiltin(info, call, "new"):
		pass.Reportf(call.Pos(), "%s is reachable from a hot path and calls new", name)
		return
	}

	// Explicit conversion to an interface type (unannotated functions
	// only; hotpath covers the annotated bodies).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !annotated && types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				pass.Reportf(call.Pos(),
					"%s is reachable from a hot path and boxes %s into an interface", name, at)
			}
		}
		return
	}

	callee, _ := calleeObj(info, call).(*types.Func)
	if callee == nil {
		// Indirect call: a func value or method value whose target is
		// unknown; flag only dynamic dispatch through selectors (calling
		// a captured func parameter is the caller's contract).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				pass.Reportf(call.Pos(),
					"%s is reachable from a hot path and calls %s dynamically through an interface", name, sel.Sel.Name)
			}
		}
		return
	}

	// Dynamic dispatch: the selection's receiver is an interface.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if recv := s.Recv(); recv != nil && types.IsInterface(recv) {
				pass.Reportf(call.Pos(),
					"%s is reachable from a hot path and calls %s dynamically through an interface", name, callee.Name())
				return
			}
		}
	}

	// Annotation closure across module packages.
	if cp := callee.Pkg(); cp != nil && cp != pass.Pkg.Types &&
		pass.Facts.ModulePkgs[cp.Path()] && !pass.Facts.Hot[callee] {
		pass.Reportf(call.Pos(),
			"%s is reachable from a hot path and calls %s.%s, which is not annotated texlint:hotpath",
			name, cp.Name(), callee.Name())
		return
	}

	// Implicit interface boxing at the call boundary: a concrete argument
	// passed to an interface parameter is heap-boxed per call.
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1)
			if sl, ok := last.Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(),
			"%s is reachable from a hot path and boxes %s into an interface argument of %s",
			name, at, callee.Name())
	}
}
