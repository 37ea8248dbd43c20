package lint

// mapiter is the interprocedural complement to the determinism analyzer's
// map-range check. determinism flags output emitted directly inside a
// range-over-map body; mapiter tracks the taint — "this value depends on
// Go's randomized map iteration order" — through assignments, helper
// calls, and function boundaries (via the FlowFacts MapOrdered and
// ParamSinks summaries), and reports when it reaches an emitting sink
// without an intervening sort: fmt output, writer/encoder methods, module
// emit methods (Emit/Frame/Texel), stores into Results/Frames/Records/
// Shards slots, or a call whose summarized parameter feeds such a sink.
//
// The repo's contract is byte-identical output at any parallelism, so any
// map-order dependence in an emitted value is a determinism bug even when
// each individual run "looks fine". Sorting launders the taint: the
// collect-then-sort idiom (append inside the range, sort.Strings after)
// passes, as do slices.Sorted(maps.Keys(m)) pipelines. See taint.go for
// the propagation rules and their limits.

import (
	"go/ast"
)

// Mapiter reports map-iteration-order-dependent values reaching emitted
// output without a sort.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc:  "map iteration order flows into emitted output without an intervening sort",
	Run:  runMapiter,
}

func runMapiter(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var flow *FlowFacts
			if pass.Facts != nil {
				flow = pass.Facts.Flow
			}
			tt := newTaintTracker(pass.Pkg.Info, flow)
			tt.onSink = func(n ast.Node, t *taint, desc string) {
				if t.mapOrder {
					pass.Reportf(n.Pos(), "value derived from map iteration order reaches %s without an intervening sort (nondeterministic output)", desc)
				}
			}
			tt.walk(fn.Body)
		}
	}
}
