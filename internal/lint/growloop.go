package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Growloop is the append-preallocation analyzer. Go's append
// grows a slice by a bounded factor (~1.25x at size), so filling a
// slice of final length n element-by-element from zero capacity
// allocates and copies a geometric ladder of intermediate arrays — the
// cumulative allocation is several times the final size, all garbage.
// When the iteration count is statically in hand at loop entry, the fix
// is one line: make(..., 0, n).
//
// Growloop flags an unconditional single-element append to a target
// that provably starts empty — a local declared `var x []T`, `x :=
// []T{}`, `x = nil` or `x := make([]T, 0)`, or a field a local
// composite literal leaves unset — inside a counted loop whose trip
// count is derivable: `for i := 0; i < n; i++` or `for range xs`, with
// the bound not reassigned in the body. The bound is the final length
// only when nothing else feeds the slice, so two screens apply: the
// target must have exactly one append in the function, and when the
// counted loop is itself nested in another loop, the target must be
// declared inside that outer loop (a target declared further out
// accumulates across outer iterations and its final length is not this
// loop's bound). Targets with a reuse pattern are skipped: an explicit
// make capacity, or the x = x[:0] scratch reset (its steady-state
// capacity amortizes growth). Conditional appends, multi-element
// appends and uncounted loops have no derivable final length and are
// not flagged.
var Growloop = &Analyzer{
	Name: "growloop",
	Doc:  "flag append-in-loop without preallocation where the final length is statically derivable",
	Run:  runGrowloop,
}

func runGrowloop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGrowBody(pass, fn)
		}
	}
}

// growScope is the per-function pre-pass: which locals provably start
// empty, which have known capacity or are resliced, and which locals
// hold a composite literal whose unset fields start nil.
type growScope struct {
	pass      *Pass
	decl      *ast.FuncDecl
	emptyDecl map[types.Object]bool
	capKnown  map[types.Object]bool
	resliced  map[types.Object]bool
	localLits map[types.Object]*ast.CompositeLit
	// appends counts `x = append(x, ...)` statements per target object;
	// more than one means the counted bound is not the final length.
	appends map[types.Object]int
	// setFields holds field objects assigned directly somewhere in the
	// function (s.f = make(...), s.f = other): their start state at the
	// loop is not the literal's zero value, so they are never flagged.
	setFields map[types.Object]bool
}

func checkGrowBody(pass *Pass, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	gs := &growScope{
		pass:      pass,
		decl:      decl,
		emptyDecl: make(map[types.Object]bool),
		capKnown:  make(map[types.Object]bool),
		resliced:  make(map[types.Object]bool),
		localLits: make(map[types.Object]*ast.CompositeLit),
		appends:   make(map[types.Object]int),
		setFields: make(map[types.Object]bool),
	}

	classify := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if isBuiltin(info, rhs, "make") {
				if len(rhs.Args) >= 3 {
					gs.capKnown[obj] = true
				} else if len(rhs.Args) == 2 {
					if n, ok := intConst(info, rhs.Args[1]); ok && n == 0 {
						gs.emptyDecl[obj] = true
					}
				}
			}
		case *ast.CompositeLit:
			if len(rhs.Elts) == 0 {
				if _, isSlice := typeOfObj(obj).(*types.Slice); isSlice {
					gs.emptyDecl[obj] = true
					return
				}
			}
			gs.localLits[obj] = rhs
		case *ast.UnaryExpr:
			if rhs.Op == token.AND {
				if cl, ok := rhs.X.(*ast.CompositeLit); ok {
					gs.localLits[obj] = cl
				}
			}
		case *ast.SliceExpr:
			if isZeroLen(info, rhs) && sameRef(info, id, rhs.X) {
				gs.resliced[obj] = true
			}
		case *ast.Ident:
			if rhs.Name == "nil" {
				gs.emptyDecl[obj] = true
			}
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						classify(name, vs.Values[i])
						continue
					}
					obj := info.ObjectOf(name)
					if obj == nil {
						continue
					}
					if _, isSlice := typeOfObj(obj).(*types.Slice); isSlice {
						gs.emptyDecl[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
					if obj := appendKey(info, lhs); obj != nil {
						gs.appends[obj]++
					}
				} else if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					// A non-append store to a field means its state at
					// the loop is not the enclosing literal's zero value.
					if field := info.ObjectOf(sel.Sel); field != nil {
						gs.setFields[field] = true
					}
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					classify(id, n.Rhs[i])
				}
			}
		}
		return true
	})

	// Walk with an explicit node stack so each counted loop knows its
	// nearest enclosing loop body (ast.Inspect signals post-order with a
	// nil node).
	var stack []ast.Node
	enclosingLoopBody := func() *ast.BlockStmt {
		for i := len(stack) - 1; i >= 0; i-- {
			switch outer := stack[i].(type) {
			case *ast.ForStmt:
				return outer.Body
			case *ast.RangeStmt:
				return outer.Body
			}
		}
		return nil
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch loop := n.(type) {
		case *ast.ForStmt:
			if bound, bx, ok := countedBound(info, loop); ok && !identReassigned(info, loop.Body, bx) {
				gs.checkCountedLoop(loop.Body, bound, enclosingLoopBody())
			}
		case *ast.RangeStmt:
			if bound, ok := rangeBound(info, loop); ok {
				gs.checkCountedLoop(loop.Body, bound, enclosingLoopBody())
			}
		}
		stack = append(stack, n)
		return true
	})
}

// appendKey maps an append target expression to the object whose append
// count it contributes to: the variable itself for identifiers, the
// field object for selector targets.
func appendKey(info *types.Info, lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// typeOfObj returns the object's underlying type, nil-safe.
func typeOfObj(obj types.Object) types.Type {
	if obj == nil || obj.Type() == nil {
		return nil
	}
	return obj.Type().Underlying()
}

// countedBound recognizes `for i := 0; i < n; i++` (and <=) and returns
// the bound's rendering plus its identifier object when the bound is a
// plain variable (for the reassignment check).
func countedBound(info *types.Info, loop *ast.ForStmt) (string, types.Object, bool) {
	if loop.Init == nil || loop.Cond == nil || loop.Post == nil {
		return "", nil, false
	}
	init, ok := loop.Init.(*ast.AssignStmt)
	if !ok || len(init.Lhs) != 1 || init.Tok != token.DEFINE {
		return "", nil, false
	}
	iv, ok := ast.Unparen(init.Lhs[0]).(*ast.Ident)
	if !ok {
		return "", nil, false
	}
	if inc, ok := loop.Post.(*ast.IncDecStmt); !ok || inc.Tok != token.INC {
		return "", nil, false
	}
	cond, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return "", nil, false
	}
	cid, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || cid.Name != iv.Name {
		return "", nil, false
	}
	switch b := ast.Unparen(cond.Y).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(b)
		switch obj.(type) {
		case *types.Var, *types.Const:
			return b.Name, obj, true
		}
	case *ast.SelectorExpr:
		return boundText(b), nil, true
	case *ast.BasicLit:
		return b.Value, nil, true
	case *ast.CallExpr:
		if isBuiltin(info, b, "len") && len(b.Args) == 1 {
			return "len(" + boundText(b.Args[0]) + ")", nil, true
		}
	}
	return "", nil, false
}

// rangeBound derives the trip-count rendering of a range loop: len(xs)
// for slices, arrays, maps and strings, the value itself for an integer
// range. Channel ranges have no derivable count.
func rangeBound(info *types.Info, loop *ast.RangeStmt) (string, bool) {
	t := info.TypeOf(loop.X)
	if t == nil {
		return "", false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return "len(" + boundText(loop.X) + ")", true
	case *types.Pointer: // *[N]T array pointer
		if _, ok := u.Elem().Underlying().(*types.Array); ok {
			return "len(" + boundText(loop.X) + ")", true
		}
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return "len(" + boundText(loop.X) + ")", true
		}
		if u.Info()&types.IsInteger != 0 {
			return boundText(loop.X), true
		}
	}
	return "", false
}

// identReassigned reports whether the bound object is assigned inside
// the loop body (which would invalidate the derived trip count). A nil
// bound object (selector or literal bounds) is never reassigned.
func identReassigned(info *types.Info, body *ast.BlockStmt, bound types.Object) bool {
	if bound == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.ObjectOf(id) == bound {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && info.ObjectOf(id) == bound {
				found = true
			}
		}
		return !found
	})
	return found
}

// boundText renders simple bound expressions (identifiers and selector
// chains) for the diagnostic.
func boundText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return boundText(e.X) + "." + e.Sel.Name
	}
	return "n"
}

// checkCountedLoop flags unconditional single-element appends without
// preallocation directly in the loop body's statement list. outer is
// the body of the nearest enclosing loop (nil at top level).
func (gs *growScope) checkCountedLoop(body *ast.BlockStmt, bound string, outer *ast.BlockStmt) {
	info := gs.pass.Pkg.Info
	// A target resliced to zero inside the loop body is the scratch
	// idiom; collect before judging.
	loopResliced := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			if i >= len(assign.Rhs) {
				break
			}
			if sl, ok := ast.Unparen(assign.Rhs[i]).(*ast.SliceExpr); ok && isZeroLen(info, sl) && sameRef(info, lhs, sl.X) {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					loopResliced[info.ObjectOf(id)] = true
				}
			}
		}
		return true
	})

	for _, stmt := range body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for i, lhs := range assign.Lhs {
			if i >= len(assign.Rhs) {
				break
			}
			call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "append") {
				continue
			}
			// Growth form only: x = append(x, elem) with one element and
			// no spread.
			if len(call.Args) != 2 || call.Ellipsis.IsValid() || !sameRef(info, lhs, call.Args[0]) {
				continue
			}
			if gs.appends[appendKey(info, lhs)] != 1 {
				continue // other appends feed the slice; bound != final length
			}
			if !gs.unpreallocated(lhs, loopResliced, outer) {
				continue
			}
			gs.pass.Reportf(call.Pos(),
				"%s appends to %s once per iteration of a loop bounded by %s without preallocation; make it with capacity %s before the loop",
				gs.decl.Name.Name, boundText(lhs), bound, bound)
		}
	}
}

// unpreallocated decides whether the append target provably starts with
// no capacity at the counted loop's entry: a local declared empty, or a
// field of a local composite literal that does not initialize it. When
// the counted loop is nested in an outer loop, the target must be
// declared inside that outer loop — otherwise it accumulates across
// outer iterations and the bound is not its final length.
func (gs *growScope) unpreallocated(lhs ast.Expr, loopResliced map[types.Object]bool, outer *ast.BlockStmt) bool {
	info := gs.pass.Pkg.Info
	declaredFresh := func(obj types.Object) bool {
		return outer == nil || (obj.Pos() >= outer.Pos() && obj.Pos() <= outer.End())
	}
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil || gs.capKnown[obj] || gs.resliced[obj] || loopResliced[obj] {
			return false
		}
		return gs.emptyDecl[obj] && declaredFresh(obj)
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return false
		}
		if field := info.ObjectOf(e.Sel); field == nil || gs.setFields[field] {
			return false
		}
		baseObj := info.ObjectOf(base)
		lit, ok := gs.localLits[baseObj]
		if !ok || !declaredFresh(baseObj) {
			return false
		}
		// The composite literal must leave this field unset (nil).
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return false // positional literal: fields unknown
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == e.Sel.Name {
				return false
			}
		}
		return true
	}
	return false
}

// intConst extracts a non-negative integer constant from e.
func intConst(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	n, exact := constant.Int64Val(v)
	if !exact || n < 0 {
		return 0, false
	}
	return n, true
}

// sameRef reports whether two expressions name the same variable or the
// same field of the same variable (x vs x, s.buf vs s.buf).
func sameRef(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bid, ok := b.(*ast.Ident)
		return ok && info.ObjectOf(a) != nil && info.ObjectOf(a) == info.ObjectOf(bid)
	case *ast.SelectorExpr:
		bsel, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bsel.Sel.Name && sameRef(info, a.X, bsel.X)
	}
	return false
}

// isZeroLen reports whether the slice expression is the scratch-reset
// idiom x[:0] (or x[0:0]).
func isZeroLen(info *types.Info, sl *ast.SliceExpr) bool {
	if sl.High == nil {
		return false
	}
	n, ok := intConst(info, sl.High)
	if !ok || n != 0 {
		return false
	}
	if sl.Low == nil {
		return true
	}
	low, ok := intConst(info, sl.Low)
	return ok && low == 0
}
