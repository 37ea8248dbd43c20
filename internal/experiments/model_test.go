package experiments

import (
	"io"
	"testing"

	"texcache/internal/core"
	"texcache/internal/model/reusemodel"
	"texcache/internal/raster"
)

// TestModelErrorBound is the golden model-accuracy test: over all 13
// sweep specs on both cache-study workloads, the -fast engine's
// predicted L1 hit rate and L2 full-hit rate must stay within 2%
// absolute of the exact simulator. This is the empirical contract the
// -fast sweep rests on; the exact side is the memoized sweep the other
// experiments print.
func TestModelErrorBound(t *testing.T) {
	const bound = 0.02
	c := NewContext(Bench(), io.Discard)
	for _, name := range []string{"village", "city"} {
		exact, err := c.sweep(name, raster.Trilinear)
		if err != nil {
			t.Fatal(err)
		}
		render := c.sweepConfig(name, raster.Trilinear)
		render.FastSweep = true
		fast, err := core.RunComparison(c.workloadByName(name), render, SweepSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if len(fast.Model) != len(SweepSpecs()) {
			t.Fatalf("%s: model report covers %d of %d specs", name, len(fast.Model), len(SweepSpecs()))
		}
		for i, m := range fast.Model {
			e := reusemodel.Compare(*m.Pred, exact.Results[i].Totals)
			if e.L1AbsErr > bound {
				t.Errorf("%s/%s: L1 hit rate model error %.4f (exact %.4f, model %.4f) exceeds %.2f",
					name, m.Spec, e.L1AbsErr, e.ExactL1Hit, e.ModelL1Hit, bound)
			}
			if e.L2AbsErr > bound {
				t.Errorf("%s/%s: L2 full-hit rate model error %.4f (exact %.4f, model %.4f) exceeds %.2f",
					name, m.Spec, e.L2AbsErr, e.ExactL2FullHit, e.ModelL2FullHit, bound)
			}
		}
	}
}
