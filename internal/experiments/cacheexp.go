package experiments

import (
	"texcache/internal/core"
	"texcache/internal/model"
	"texcache/internal/raster"
)

var l1Sweep = []string{"pull-2k", "pull-4k", "pull-8k", "pull-16k", "pull-32k"}

// Fig9 prints the L1 miss rate by cache size over the Village animation
// (trilinear, as in the paper's figure).
func (c *Context) Fig9() error {
	c.header("Figure 9: L1 miss rate by cache size (Village, trilinear)")
	cmp, err := c.sweep("village", raster.Trilinear)
	if err != nil {
		return err
	}
	c.printf("%6s", "frame")
	for _, name := range l1Sweep {
		c.printf(" %9s", name[len("pull-"):])
	}
	c.printf("\n")
	frames := len(cmp.Results[0].Frames)
	step := frames / 12
	if step == 0 {
		step = 1
	}
	for f := 0; f < frames; f += step {
		c.printf("%6d", f)
		for _, name := range l1Sweep {
			fr := specResult(cmp, name).Frames[f]
			c.printf(" %8.2f%%", 100*fr.Counters.L1.MissRate())
		}
		c.printf("\n")
	}
	// Peak miss rate check against the paper's observation.
	for _, name := range l1Sweep {
		res := specResult(cmp, name)
		peak := 0.0
		for _, fr := range res.Frames {
			if r := fr.Counters.L1.MissRate(); r > peak {
				peak = r
			}
		}
		c.printf("peak %-8s %.2f%%   ", name[len("pull-"):], 100*peak)
	}
	c.printf("\nPaper: 16KB nearly as good as 32KB; even 2KB peak miss < ~5%% trilinear.\n")
	return nil
}

// Table2 prints average L1 hit rates by size for bilinear and trilinear.
func (c *Context) Table2() error {
	c.header("Table 2: average L1 hit rates (Village)")
	c.printf("%8s %12s %12s\n", "L1 size", "bilinear", "trilinear")
	bl, err := c.sweep("village", raster.Bilinear)
	if err != nil {
		return err
	}
	tl, err := c.sweep("village", raster.Trilinear)
	if err != nil {
		return err
	}
	for _, name := range l1Sweep {
		c.printf("%8s %11.2f%% %11.2f%%\n", name[len("pull-"):],
			100*specResult(bl, name).Totals.L1.HitRate(),
			100*specResult(tl, name).Totals.L1.HitRate())
	}
	c.printf("Paper: hit rates in the high 90s; 16KB ~ 32KB.\n")
	return nil
}

// bandwidthConfigs are the Figure 10 / Table 3 cache configurations.
var bandwidthConfigs = []struct{ spec, label string }{
	{"pull-16k", "16KB L1, no L2"},
	{"pull-2k", "2KB L1, no L2"},
	{"l2-2m", "2KB L1, 2MB L2"},
	{"l2-4m", "2KB L1, 4MB L2"},
	{"l2-8m", "2KB L1, 8MB L2"},
}

// Fig10 prints per-frame host download bandwidth with and without L2
// (trilinear, 16x16 L2 tiles).
func (c *Context) Fig10() error {
	c.header("Figure 10: download bandwidth per frame, with and without L2 (trilinear)")
	for _, name := range []string{"village", "city"} {
		cmp, err := c.sweep(name, raster.Trilinear)
		if err != nil {
			return err
		}
		c.printf("\n-- %s (MB/frame) --\n%6s", name, "frame")
		for _, cfg := range bandwidthConfigs {
			c.printf(" %16s", cfg.label)
		}
		c.printf("\n")
		frames := len(cmp.Results[0].Frames)
		step := frames / 12
		if step == 0 {
			step = 1
		}
		for f := 0; f < frames; f += step {
			c.printf("%6d", f)
			for _, cfg := range bandwidthConfigs {
				fr := specResult(cmp, cfg.spec).Frames[f]
				c.printf(" %16.3f", mb(fr.Counters.HostBytes))
			}
			c.printf("\n")
		}
	}
	c.printf("\nPaper: 2MB L2 saves 5x-18x bandwidth vs pull (16KB and 2KB L1 resp.);\n")
	c.printf("2MB L2 holds the City working set almost always, 8MB holds the Village's.\n")
	return nil
}

// Table3 prints average host bandwidth (MB/frame) for both filters.
func (c *Context) Table3() error {
	c.header("Table 3: average AGP/system-memory bandwidth (MB/frame)")
	for _, name := range []string{"village", "city"} {
		bl, err := c.sweep(name, raster.Bilinear)
		if err != nil {
			return err
		}
		tl, err := c.sweep(name, raster.Trilinear)
		if err != nil {
			return err
		}
		c.printf("\n-- %s --\n%-18s %10s %10s\n", name, "config", "BL", "TL")
		for _, cfg := range bandwidthConfigs {
			c.printf("%-18s %10.3f %10.3f\n", cfg.label,
				specResult(bl, cfg.spec).AvgHostMBPerFrame(),
				specResult(tl, cfg.spec).AvgHostMBPerFrame())
		}
		pull := specResult(tl, "pull-2k").AvgHostMBPerFrame()
		pull16 := specResult(tl, "pull-16k").AvgHostMBPerFrame()
		l2 := specResult(tl, "l2-2m").AvgHostMBPerFrame()
		if l2 > 0 {
			c.printf("savings with 2MB L2 (TL): %.0fx vs 2KB pull, %.0fx vs 16KB pull\n",
				pull/l2, pull16/l2)
		}
	}
	c.printf("\nPaper: a 2MB L2 saves 18x (vs 2KB L1 pull) to 5x (vs 16KB L1 pull) for the\n")
	c.printf("Village, and up to ~140x for the City.\n")
	return nil
}

// Table56 prints L1 hit rates (Table 5) and L2 full/partial hit rates
// conditioned on L1 miss (Table 6) for both workloads and filters.
func (c *Context) Table56() error {
	c.header("Tables 5-6: L1 hit rates and L2 full/partial hit rates (2KB L1, 2MB L2)")
	c.printf("%-10s %-10s %10s %14s %14s %12s\n",
		"workload", "filter", "L1 hit", "L2 full", "L2 partial", "L2 miss")
	for _, name := range []string{"village", "city"} {
		for _, mode := range []raster.SampleMode{raster.Bilinear, raster.Trilinear} {
			cmp, err := c.sweep(name, mode)
			if err != nil {
				return err
			}
			res := specResult(cmp, "l2-2m")
			l2 := res.Totals.L2
			c.printf("%-10s %-10s %9.2f%% %13.2f%% %13.2f%% %11.2f%%\n",
				name, mode, 100*res.Totals.L1.HitRate(),
				100*l2.FullHitRate(), 100*l2.PartialHitRate(),
				100*(1-l2.FullHitRate()-l2.PartialHitRate()))
		}
	}
	c.printf("Note: L2 rates are conditional on an L1 miss; inclusion is not guaranteed.\n")
	return nil
}

// Table7 prints the fractional advantage f of L2 caching, with the cost of
// a full L2 miss bounded at c = 8x an L1 block download.
func (c *Context) Table7() error {
	c.header("Table 7: fractional advantage f of L2 caching (c = 8)")
	const cost = 8.0
	c.printf("%-10s %-10s %8s %10s\n", "workload", "filter", "f", "speedup")
	for _, name := range []string{"village", "city"} {
		for _, mode := range []raster.SampleMode{raster.Bilinear, raster.Trilinear} {
			cmp, err := c.sweep(name, mode)
			if err != nil {
				return err
			}
			res := specResult(cmp, "l2-2m")
			l2 := res.Totals.L2
			f := model.FractionalAdvantage(cost, l2.FullHitRate(), l2.PartialHitRate())
			// Speedup of the miss path with t1 = 0.05 t3 as a
			// representative on-chip hit time.
			s := model.Speedup(0.05, res.Totals.L1.HitRate(), f)
			c.printf("%-10s %-10s %8.3f %9.2fx\n", name, mode, f, s)
		}
	}
	c.printf("f < 1 means the L2 architecture outperforms pull even with expensive misses.\n")
	return nil
}

// Table8 prints TLB hit rates as a function of entry count (Figure 11 is
// the same data over frames).
func (c *Context) Table8() error {
	c.header("Table 8 / Figure 11: texture page table TLB hit rates (2KB L1, 2MB L2)")
	tlbSpecs := []struct {
		spec    string
		entries int
	}{
		{"tlb-1", 1}, {"tlb-2", 2}, {"tlb-4", 4}, {"tlb-8", 8}, {"l2-2m", 16},
	}
	for _, mode := range []raster.SampleMode{raster.Bilinear, raster.Trilinear} {
		c.printf("\n-- %s --\n%9s %12s %12s\n", mode, "entries", "Village", "City")
		v, err := c.sweep("village", mode)
		if err != nil {
			return err
		}
		ci, err := c.sweep("city", mode)
		if err != nil {
			return err
		}
		for _, ts := range tlbSpecs {
			c.printf("%9d %11.1f%% %11.1f%%\n", ts.entries,
				100*specResult(v, ts.spec).Totals.TLB.HitRate(),
				100*specResult(ci, ts.spec).Totals.TLB.HitRate())
		}
	}
	c.printf("\nPaper (bilinear): 36%%, 63%%, 74-75%%, 81-82%%, 91-92%% for 1..16 entries.\n")
	return nil
}

// frameHost returns per-frame host MB for a spec (used by tests).
func frameHost(res *core.Results, f int) float64 {
	return mb(res.Frames[f].Counters.HostBytes)
}
