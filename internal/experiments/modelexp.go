package experiments

import (
	"texcache/internal/core"
	"texcache/internal/model/reusemodel"
	"texcache/internal/raster"
)

// ModelReport prints the analytic reuse model's accuracy on the full
// cache sweep: for every spec, the model's predicted L1 hit rate and L2
// full-hit rate next to the exact simulator's, with absolute errors —
// the empirical backing for trusting the -fast sweep. Under a -fast
// context the exact side is absent and the table reports predictions
// only.
func (c *Context) ModelReport() error {
	c.header("Reuse model: predicted vs exact rates on the cache sweep (trilinear)")
	for _, name := range []string{"village", "city"} {
		model, err := c.modelRates(name)
		if err != nil {
			return err
		}
		c.printf("\n-- %s --\n", name)
		c.modelTable(model)
	}
	c.printf("\nRates are absolute; L2 full-hit rates are conditioned on an L1 miss.\n")
	c.printf("Specs the model refuses fall back to exact replay in -fast sweeps.\n")
	return nil
}

// modelRates returns the model's report on a workload's trilinear cache
// sweep, parallel to SweepSpecs(). A memoized exact sweep carries no
// reuse probe, so the predictions come from a -fast sweep of their own,
// each compared with the exact sweep's counters; a memoized -fast sweep
// carries its own predictions, with no exact side.
func (c *Context) modelRates(name string) ([]core.SpecModel, error) {
	cmp, err := c.sweep(name, raster.Trilinear)
	if err != nil {
		return nil, err
	}
	if cmp.Model != nil {
		return cmp.Model, nil
	}
	render := c.sweepConfig(name, raster.Trilinear)
	render.FastSweep = true
	fast, err := core.RunComparison(c.workloadByName(name), render, SweepSpecs())
	if err != nil {
		return nil, err
	}
	for i := range fast.Model {
		if m := &fast.Model[i]; m.Modeled {
			m.HasExact = true
			m.Err = reusemodel.Compare(*m.Pred, cmp.Results[i].Totals)
		}
	}
	return fast.Model, nil
}

func (c *Context) modelTable(model []core.SpecModel) {
	c.printf("%-12s %9s %9s %7s   %9s %9s %7s\n",
		"spec", "L1 exact", "L1 model", "|err|", "L2 exact", "L2 model", "|err|")
	maxL1, maxL2 := 0.0, 0.0
	for _, m := range model {
		switch {
		case !m.Modeled:
			c.printf("%-12s replayed exactly: %s\n", m.Spec, m.Unreachable)
		case !m.HasExact:
			c.printf("%-12s %9s %8.2f%% %7s   %9s %8.2f%% %7s\n",
				m.Spec, "-", 100*m.Pred.L1HitRate(), "-",
				"-", 100*m.Pred.L2FullHitRate(), "-")
		default:
			c.printf("%-12s %8.2f%% %8.2f%% %6.2f%%   %8.2f%% %8.2f%% %6.2f%%\n",
				m.Spec,
				100*m.Err.ExactL1Hit, 100*m.Err.ModelL1Hit, 100*m.Err.L1AbsErr,
				100*m.Err.ExactL2FullHit, 100*m.Err.ModelL2FullHit, 100*m.Err.L2AbsErr)
			if m.Err.L1AbsErr > maxL1 {
				maxL1 = m.Err.L1AbsErr
			}
			if m.Err.L2AbsErr > maxL2 {
				maxL2 = m.Err.L2AbsErr
			}
		}
	}
	if maxL1 > 0 || maxL2 > 0 {
		c.printf("max |err|: L1 hit %.2f%%, L2 full hit %.2f%%\n", 100*maxL1, 100*maxL2)
	}
}
