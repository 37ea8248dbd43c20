package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Sharedstate is the texvet concurrency analyzer: it finds shared mutable
// state escaping into goroutines without synchronization. The simulator's
// parallel layer, the experiment prefetcher's worker pool, must keep
// every result a pure function of the job list —
// an unsynchronized captured write not only races, it makes the merged
// output depend on goroutine scheduling, which silently perturbs the
// reproduced tables.
//
// Three rules, all CFG/dataflow-driven:
//
//  1. A `go func(){...}()` literal that writes (directly or through an
//     alias-lite pointer) a variable captured from the enclosing function
//     conflicts with any access to that variable reachable from the go
//     statement, unless every path to the access crosses a
//     synchronization barrier (WaitGroup.Wait, Mutex.Lock, Once.Do,
//     channel operation, close). Symmetrically, a capture the goroutine
//     only reads conflicts with any spawner-side write reachable from
//     the spawn without a barrier.
//  2. A go statement that captures (rather than receives as an argument)
//     an iteration variable of an enclosing loop is flagged: even with
//     per-iteration loop variables, the capture makes the goroutine's
//     input implicit and fragile under refactoring.
//  3. A reference-typed value sent over a channel and then written on the
//     sender side (reachable, no barrier) is flagged: the receiver and
//     the sender share the referent.
var Sharedstate = &Analyzer{
	Name: "sharedstate",
	Doc:  "forbid unsynchronized shared state captured by goroutines or sent over channels",
	Run:  runSharedstate,
}

func runSharedstate(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSharedState(pass, fn)
		}
	}
}

func checkSharedState(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	cfg := BuildCFG(fn.Body)
	df := ReachingDefs(cfg, info)
	barrier := func(n ast.Node) bool { return isBarrierNode(info, n) }

	// Loop stack: iteration variables of the loops enclosing each node.
	type loopVars = map[*types.Var]bool
	var stack []loopVars

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			lv := loopVars{}
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if v, ok := info.ObjectOf(id).(*types.Var); ok {
						lv[v] = true
					}
				}
			}
			stack = append(stack, lv)
			ast.Inspect(n.Body, walk)
			stack = stack[:len(stack)-1]
			return false
		case *ast.ForStmt:
			lv := loopVars{}
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := info.ObjectOf(id).(*types.Var); ok {
							lv[v] = true
						}
					}
				}
			}
			stack = append(stack, lv)
			if n.Body != nil {
				ast.Inspect(n.Body, walk)
			}
			stack = stack[:len(stack)-1]
			return false
		case *ast.GoStmt:
			lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoLiteral(pass, cfg, df, n, lit, stack, barrier)
			// The literal's own body may spawn further goroutines.
			return true
		case *ast.SendStmt:
			checkSend(pass, cfg, n, barrier)
			return true
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkGoLiteral applies rules 1 and 2 to one `go func(){...}(...)`.
func checkGoLiteral(pass *Pass, cfg *CFG, df *DefFlow, g *ast.GoStmt, lit *ast.FuncLit,
	stack []map[*types.Var]bool, barrier func(ast.Node) bool) {
	info := pass.Pkg.Info

	captured := capturedVars(info, lit)

	// Rule 2: loop-variable capture.
	for _, frame := range stack {
		for v := range frame {
			if captured[v] {
				pass.Reportf(g.Pos(),
					"goroutine captures loop variable %s; pass it as an argument instead", v.Name())
			}
		}
	}

	// Rule 1: captured writes vs reachable outside accesses.
	written := writtenCaptures(info, lit, captured)
	reach := ReachableFrom(cfg, g, barrier)

	// Symmetric direction: a capture the goroutine only reads races with
	// any spawner-side write reachable from the spawn without a barrier.
	for v := range captured {
		if _, goroutineWrites := written[v]; goroutineWrites {
			continue // the write-side loop below owns these
		}
		if isSyncType(v.Type()) || isLoopVar(stack, v) {
			continue // sync types synchronize; loop vars are rule 2's
		}
		for _, n := range reach {
			if n == g || contains(lit, n) {
				continue
			}
			if writesVar(info, n, v) || aliasedWrite(df, info, n, v) {
				pass.Reportf(g.Pos(),
					"captured %s is written after the go statement without synchronization while the goroutine reads it", v.Name())
				break
			}
		}
	}
	if len(written) == 0 {
		return
	}
	for v := range written {
		if isSyncType(v.Type()) {
			continue
		}
		for _, n := range reach {
			if n == g || contains(lit, n) {
				continue
			}
			if accessesVar(info, n, v, lit) || aliasedWrite(df, info, n, v) {
				pass.Reportf(g.Pos(),
					"goroutine writes captured %s, which is also accessed after the go statement without synchronization", v.Name())
				break
			}
		}
		// Two goroutines from the same loop writing the same capture race
		// with each other even if the spawner never touches it again —
		// unless each write lands in a distinct element (written[v] is
		// false for element-indexed writes, see writtenCaptures).
		if written[v] && insideLoop(stack) {
			pass.Reportf(g.Pos(),
				"goroutines spawned in a loop write captured %s without synchronization", v.Name())
		}
	}
}

func insideLoop(stack []map[*types.Var]bool) bool { return len(stack) > 0 }

// isLoopVar reports whether v is an iteration variable of any enclosing
// loop.
func isLoopVar(stack []map[*types.Var]bool, v *types.Var) bool {
	for _, frame := range stack {
		if frame[v] {
			return true
		}
	}
	return false
}

// capturedVars returns the variables the literal references that are
// declared outside it (free variables), excluding package-level state.
func capturedVars(info *types.Info, lit *ast.FuncLit) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if isPackageLevel(v) {
			return true // globalmut's jurisdiction
		}
		if v.Pos() == 0 || contains(lit, identDeclNode(v)) {
			return true
		}
		// Declared before the literal's body: captured iff its position
		// is outside the literal's source range.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			out[v] = true
		}
		return true
	})
	return out
}

// identDeclNode gives a fake single-position "node" for containment tests.
type posNode token.Pos

func (p posNode) Pos() token.Pos { return token.Pos(p) }
func (p posNode) End() token.Pos { return token.Pos(p) }

func identDeclNode(v *types.Var) ast.Node { return posNode(v.Pos()) }

// isPackageLevel reports whether v is a package-scope variable.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// writtenCaptures finds captured variables the literal writes. The bool
// value records whether any write hits the whole variable or an aliased
// region (true) versus only distinct per-spawn elements like buf[i] where
// i is a literal parameter (false) — the latter is the safe slot-per-
// worker idiom, racy against readers but not between workers.
func writtenCaptures(info *types.Info, lit *ast.FuncLit, captured map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	// paramObjs: the literal's own parameters, used to recognize the
	// slot-per-worker idiom.
	paramObjs := make(map[*types.Var]bool)
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, id := range f.Names {
				if v, ok := info.Defs[id].(*types.Var); ok {
					paramObjs[v] = true
				}
			}
		}
	}
	// aliases: locals of the literal that may point into a captured var.
	aliases := make(map[*types.Var]*types.Var) // local -> captured root
	aliasSlotted := make(map[*types.Var]bool)  // alias came from &cap[param]
	note := func(local, root *types.Var, rhs ast.Expr) {
		if root != nil && captured[root] {
			aliases[local] = root
			aliasSlotted[local] = indexedByParam(info, rhs, paramObjs)
		}
	}
	record := func(target ast.Expr, whole bool) {
		root := rootVar(info, target)
		if root == nil {
			return
		}
		if r, ok := aliases[root]; ok {
			slotted := aliasSlotted[root]
			if prev, seen := out[r]; !seen || (!prev && !slotted) {
				out[r] = !slotted
			}
			return
		}
		if !captured[root] {
			return
		}
		slotted := !whole && indexedByParam(info, target, paramObjs)
		if prev, seen := out[root]; !seen || (!prev && !slotted) {
			out[root] = !slotted
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					v, _ := info.ObjectOf(id).(*types.Var)
					if v != nil && !captured[v] {
						// Local definition: track aliasing.
						if n.Tok == token.DEFINE && i < len(n.Rhs) {
							note(v, rootVar(info, n.Rhs[i]), n.Rhs[i])
						}
						continue
					}
					record(lhs, true)
					continue
				}
				record(lhs, false)
			}
		case *ast.IncDecStmt:
			_, whole := ast.Unparen(n.X).(*ast.Ident)
			record(n.X, whole)
		}
		return true
	})
	return out
}

// indexedByParam reports whether e contains an index expression whose
// index is one of the literal's parameters — the slot-per-worker shape
// results[i] with i passed in.
func indexedByParam(info *types.Info, e ast.Expr, params map[*types.Var]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok {
			if v, ok := info.ObjectOf(id).(*types.Var); ok && params[v] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// aliasedWrite reports whether node n writes v through a pointer alias:
// an assignment whose target roots at a local q where some definition of
// q reaching n (per the reaching-definitions solution) may alias v. This
// sees through `p := &shared; ...; *p = x` on the spawner's side.
func aliasedWrite(df *DefFlow, info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		var targets []ast.Expr
		switch m := m.(type) {
		case *ast.AssignStmt:
			targets = m.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{m.X}
		default:
			return true
		}
		for _, t := range targets {
			q := rootVar(info, t)
			if q == nil || q == v {
				continue
			}
			// A write *through* q only shares storage when it dereferences
			// or indexes; a plain reassignment q = ... does not touch v.
			if _, plain := ast.Unparen(t).(*ast.Ident); plain && !isRefType(q.Type()) {
				continue
			}
			for _, d := range df.ReachingAt(m, q) {
				if d.rhs != nil && mayAlias(info, d.rhs, v) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// accessesVar reports whether node n (outside literal `exclude`) reads or
// writes v.
func accessesVar(info *types.Info, n ast.Node, v *types.Var, exclude ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if m == exclude {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok && obj == v {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkSend applies rule 3: a reference-typed value sent on a channel and
// mutated afterwards on the sender side.
func checkSend(pass *Pass, cfg *CFG, send *ast.SendStmt, barrier func(ast.Node) bool) {
	info := pass.Pkg.Info
	val := ast.Unparen(send.Value)
	var v *types.Var
	switch x := val.(type) {
	case *ast.Ident:
		if t := info.TypeOf(x); !isRefType(t) && !hasRefComponent(t) {
			return
		}
		v, _ = info.ObjectOf(x).(*types.Var)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			v = rootVar(info, x.X)
		}
	}
	if v == nil || isPackageLevel(v) {
		return
	}
	for _, n := range ReachableFrom(cfg, send, barrier) {
		if writesVar(info, n, v) {
			pass.Reportf(send.Pos(),
				"%s is sent over a channel and then written without synchronization; the receiver shares the referent", v.Name())
			return
		}
	}
}

// writesVar reports whether node n assigns to v or through v.
func writesVar(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if rootVar(info, lhs) == v {
					found = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if rootVar(info, m.X) == v {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
