package lint

import (
	"go/ast"
	"go/types"
)

// Retain is the backing-array pinning analyzer. A sub-slice
// shares its backing array with the buffer it was cut from: storing
// `buf[a:b]` into a long-lived sink — a struct field, a results slot, a
// map, a channel — keeps the entire decoded buffer reachable for as
// long as the slot lives, which both defeats pooling (the buffer can
// never be reused while a sub-slice pins it) and silently multiplies
// the live heap by the full buffer size per retained window.
//
// Retain flags stores of a sub-slice expression over a local slice
// variable or slice parameter into such a sink. Copies do not pin and
// are not flagged: `append(dst, buf[a:b]...)` copies the elements, as
// do string conversions and explicit copy() calls.
var Retain = &Analyzer{
	Name: "retain",
	Doc:  "flag sub-slices of buffers stored into long-lived sinks, pinning the backing array",
	Run:  runRetain,
}

func runRetain(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRetainBody(pass, fn)
		}
	}
}

func checkRetainBody(pass *Pass, decl *ast.FuncDecl) {
	info := pass.Pkg.Info

	// report flags one pinned sub-slice store.
	report := func(pos ast.Node, sl *ast.SliceExpr, sink string) {
		base, _ := ast.Unparen(sl.X).(*ast.Ident)
		name := "a buffer"
		if base != nil {
			name = base.Name
		}
		pass.Reportf(pos.Pos(),
			"storing a sub-slice of %s into %s pins the whole backing array, blocking reuse of the buffer; copy the bytes instead",
			name, sink)
	}

	// pinnedSub recognizes buf[a:b] over a local or parameter slice
	// variable. The reslice-to-zero scratch reset x = x[:0] is the reuse
	// idiom itself and never pins anything beyond its own buffer.
	pinnedSub := func(e ast.Expr) *ast.SliceExpr {
		sl, ok := ast.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return nil
		}
		id, ok := ast.Unparen(sl.X).(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok {
			return nil
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return nil
		}
		return sl
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				rhs := ast.Unparen(n.Rhs[i])
				// dst = append(dst, buf[a:b]) stores the slice header as
				// an element (pins); append(dst, buf[a:b]...) copies.
				if call, ok := rhs.(*ast.CallExpr); ok {
					if isBuiltin(info, call, "append") && !call.Ellipsis.IsValid() {
						for _, arg := range call.Args[1:] {
							if sl := pinnedSub(arg); sl != nil && sinkExpr(info, n.Lhs[i]) {
								report(arg, sl, "an element of "+exprSink(n.Lhs[i]))
							}
						}
					}
					continue
				}
				sl := pinnedSub(rhs)
				if sl == nil {
					continue
				}
				// The scratch reset x = x[:0] re-slices in place.
				if sameRef(info, lhs, sl.X) {
					continue
				}
				if sinkExpr(info, lhs) {
					report(n.Rhs[i], sl, exprSink(lhs))
				}
			}
		case *ast.SendStmt:
			if sl := pinnedSub(n.Value); sl != nil {
				report(n.Value, sl, "a channel")
			}
		}
		return true
	})
}

// sinkExpr reports whether storing through lhs publishes to long-lived
// state: a field, an indexed slot, a dereference, or a package-level
// variable.
func sinkExpr(info *types.Info, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok && v.Pkg() != nil {
			return v.Parent() == v.Pkg().Scope()
		}
	}
	return false
}

// exprSink names the sink category for diagnostics.
func exprSink(lhs ast.Expr) string {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "an indexed slot"
	case *ast.StarExpr:
		return "shared state through a pointer"
	}
	return "a package-level variable"
}
