package experiments

import (
	"io"
	"testing"
)

// TestModelErrorBound is the golden model-accuracy test: over all 13
// sweep specs on both cache-study workloads, the analytic model's
// predicted L1 hit rate and L2 full-hit rate must stay within 2%
// absolute of the exact simulator. This is the empirical contract the
// -fast sweep rests on; the rates here are the ones the model
// experiment prints, against the same memoized exact sweeps the other
// experiments print.
func TestModelErrorBound(t *testing.T) {
	const bound = 0.02
	c := NewContext(Bench(), io.Discard)
	for _, name := range []string{"village", "city"} {
		model, err := c.modelRates(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(model) != len(SweepSpecs()) {
			t.Fatalf("%s: model report covers %d of %d specs", name, len(model), len(SweepSpecs()))
		}
		for _, m := range model {
			if !m.Modeled {
				t.Errorf("%s/%s: not model-reachable: %s", name, m.Spec, m.Unreachable)
				continue
			}
			if !m.HasExact {
				t.Errorf("%s/%s: no exact baseline attached", name, m.Spec)
				continue
			}
			if m.Err.L1AbsErr > bound {
				t.Errorf("%s/%s: L1 hit rate model error %.4f (exact %.4f, model %.4f) exceeds %.2f",
					name, m.Spec, m.Err.L1AbsErr, m.Err.ExactL1Hit, m.Err.ModelL1Hit, bound)
			}
			if m.Err.L2AbsErr > bound {
				t.Errorf("%s/%s: L2 full-hit rate model error %.4f (exact %.4f, model %.4f) exceeds %.2f",
					name, m.Spec, m.Err.L2AbsErr, m.Err.ExactL2FullHit, m.Err.ModelL2FullHit, bound)
			}
		}
	}
}

// The model report takes its predictions from wherever the memoized
// sweep allows: a -fast sweep of its own, compared with a memoized exact
// sweep, or the memoized -fast sweep itself, which has no exact side.
func TestModelRatesExactAndFastContexts(t *testing.T) {
	tiny := Scale{Name: "tiny", Width: 64, Height: 48, VillageFrames: 2, CityFrames: 2, MallFrames: 2}
	for _, fast := range []bool{false, true} {
		c := NewContext(tiny, io.Discard)
		c.FastSweep = fast
		model, err := c.modelRates("village")
		if err != nil {
			t.Fatal(err)
		}
		if len(model) != len(SweepSpecs()) {
			t.Fatalf("fast=%v: model report covers %d of %d specs", fast, len(model), len(SweepSpecs()))
		}
		for _, m := range model {
			if !m.Modeled || m.HasExact == fast {
				t.Errorf("fast=%v: %s: modeled %v, exact side %v", fast, m.Spec, m.Modeled, m.HasExact)
			}
		}
	}
}
