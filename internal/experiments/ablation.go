package experiments

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/raster"
)

// AblationZ quantifies the paper's first future-work item (§6): performing
// the depth test before texture access reduces effective depth complexity
// toward 1 and saves both texel traffic and download bandwidth.
func (c *Context) AblationZ() error {
	c.header("Ablation A1: z-before-texture vs texture-before-z (trilinear, 2KB L1, 2MB L2)")
	c.printf("%-10s %-18s %14s %14s %12s\n",
		"workload", "order", "texels/frame", "host MB/frame", "eff. depth")
	for _, name := range []string{"village", "city"} {
		for _, zFirst := range []bool{false, true} {
			render := core.Config{
				Width:          c.Scale.Width,
				Height:         c.Scale.Height,
				Frames:         c.frames(name),
				Mode:           raster.Trilinear,
				ZBeforeTexture: zFirst,
			}
			order := "texture-before-z"
			if zFirst {
				order = "z-before-texture"
			}
			cmp, err := core.RunComparison(c.workloadByName(name), render,
				[]core.CacheSpec{l2Spec(order, 2<<10, 2, 0)})
			if err != nil {
				return err
			}
			c.emitSweep(name+"/ablation-z", cmp)
			res := cmp.Results[0]
			var pixels int64
			for _, p := range cmp.FramePixels {
				pixels += p
			}
			frames := float64(len(res.Frames))
			c.printf("%-10s %-18s %14.2fM %14.3f %12.2f\n", name, order,
				float64(res.Totals.L1.Accesses)/frames/1e6,
				res.AvgHostMBPerFrame(),
				float64(pixels)/frames/float64(c.Scale.Width*c.Scale.Height))
		}
	}
	c.printf("Paper (§6): z-buffering before texture retrieval should reduce texture\n")
	c.printf("depth toward 1, saving local memory and download bandwidth.\n")
	return nil
}

// AblationRepl compares L2 replacement policies: the paper's clock
// approximation of LRU against exact LRU and random replacement, including
// the worst-case victim-search length ("pesky" clock behaviour, §5.4.2).
func (c *Context) AblationRepl() error {
	c.header("Ablation A2: L2 replacement policy (trilinear, 2KB L1, 2MB L2)")
	c.printf("%-10s %-8s %14s %12s %12s %12s %10s\n",
		"workload", "policy", "host MB/frame", "L2 full", "evictions",
		"max search", "cycles@16")
	for _, name := range []string{"village", "city"} {
		pols := []cache.PolicyKind{cache.Clock, cache.TrueLRU, cache.Random}
		specs := make([]core.CacheSpec, 0, len(pols))
		for _, pol := range pols {
			specs = append(specs, core.CacheSpec{
				Name:    pol.String(),
				L1Bytes: 2 << 10,
				L2: &cache.L2Config{
					SizeBytes: 2 << 20,
					Layout:    l2Layout16,
					Policy:    pol,
				},
			})
		}
		render := core.Config{
			Width:  c.Scale.Width,
			Height: c.Scale.Height,
			Frames: c.frames(name),
			Mode:   raster.Trilinear,
		}
		cmp, err := core.RunComparison(c.workloadByName(name), render, specs)
		if err != nil {
			return err
		}
		c.emitSweep(name+"/ablation-repl", cmp)
		for i, spec := range specs {
			res := cmp.Results[i]
			// §5.4.2: searching the BRL active bits 16 at a time bounds
			// the worst victim search in cycles.
			cycles := (res.Totals.L2.MaxSearch + 15) / 16
			c.printf("%-10s %-8s %14.3f %11.2f%% %12d %12d %10d\n",
				name, spec.Name, res.AvgHostMBPerFrame(),
				100*res.Totals.L2.FullHitRate(),
				res.Totals.L2.Evictions, res.Totals.L2.MaxSearch, cycles)
		}
	}
	c.printf("Paper (§6): alternatives to clock deserve investigation to avoid 'pesky'\n")
	c.printf("victim searches; clock approximates LRU closely in hit rate. §5.4.2\n")
	c.printf("found a victim within 32 cycles searching 16 active bits per cycle.\n")
	return nil
}

// AblationSector compares sector mapping (download only the L1 sub-block
// on a miss) against whole-block downloads.
func (c *Context) AblationSector() error {
	c.header("Ablation A3: sector mapping (trilinear, 2KB L1, 2MB L2, 16x16 tiles)")
	c.printf("%-10s %-22s %14s %12s\n",
		"workload", "download granularity", "host MB/frame", "L2 full")
	for _, name := range []string{"village", "city"} {
		specs := []core.CacheSpec{
			{
				Name:    "sector (L1 sub-block)",
				L1Bytes: 2 << 10,
				L2: &cache.L2Config{
					SizeBytes: 2 << 20, Layout: l2Layout16, Policy: cache.Clock,
				},
			},
			{
				Name:    "whole L2 block",
				L1Bytes: 2 << 10,
				L2: &cache.L2Config{
					SizeBytes: 2 << 20, Layout: l2Layout16, Policy: cache.Clock,
					NoSectorMapping: true,
				},
			},
		}
		render := core.Config{
			Width:  c.Scale.Width,
			Height: c.Scale.Height,
			Frames: c.frames(name),
			Mode:   raster.Trilinear,
		}
		cmp, err := core.RunComparison(c.workloadByName(name), render, specs)
		if err != nil {
			return err
		}
		c.emitSweep(name+"/ablation-sector", cmp)
		for i, spec := range specs {
			res := cmp.Results[i]
			c.printf("%-10s %-22s %14.3f %11.2f%%\n",
				name, spec.Name, res.AvgHostMBPerFrame(),
				100*res.Totals.L2.FullHitRate())
		}
	}
	c.printf("Paper (§5.2): sector mapping keeps L2 downloads within the pull\n")
	c.printf("architecture's bandwidth; whole-block downloads trade bandwidth for hits.\n")
	return nil
}

// AblationAssoc reproduces Hakura's L1 associativity comparison that the
// paper leans on (§2.3): direct-mapped vs 2-way vs 4-way vs fully
// associative, at 2 KB and 16 KB, under trilinear filtering.
func (c *Context) AblationAssoc() error {
	c.header("Ablation A4: L1 associativity (Village, trilinear, pull architecture)")
	type cfg struct {
		label string
		bytes int
		ways  int
	}
	var cfgs []cfg
	for _, kb := range []int{2, 16} {
		for _, ways := range []int{1, 2, 4} {
			cfgs = append(cfgs, cfg{fmt.Sprintf("%dKB %d-way", kb, ways), kb << 10, ways})
		}
		// Fully associative: ways = line count.
		cfgs = append(cfgs, cfg{fmt.Sprintf("%dKB full", kb), kb << 10, kb << 10 / 64})
	}
	specs := make([]core.CacheSpec, 0, len(cfgs))
	for _, cf := range cfgs {
		specs = append(specs, core.CacheSpec{
			Name: cf.label, L1Bytes: cf.bytes, L1Ways: cf.ways,
		})
	}
	render := core.Config{
		Width:  c.Scale.Width,
		Height: c.Scale.Height,
		Frames: c.frames("village"),
		Mode:   raster.Trilinear,
	}
	cmp, err := core.RunComparison(c.workloadByName("village"), render, specs)
	if err != nil {
		return err
	}
	c.emitSweep("village/ablation-assoc", cmp)
	c.printf("%-14s %10s %14s\n", "organisation", "L1 hit", "host MB/frame")
	for i, cf := range cfgs {
		res := cmp.Results[i]
		c.printf("%-14s %9.2f%% %14.3f\n", cf.label,
			100*res.Totals.L1.HitRate(), res.AvgHostMBPerFrame())
	}
	c.printf("Hakura (cited in §2.3): 2-way suffices to avoid conflict misses under\n")
	c.printf("trilinear filtering; further associativity buys little.\n")
	return nil
}
