package core

import (
	"testing"

	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// TestRunDeterministic: two identical runs (fresh workloads, fresh caches)
// must produce bit-identical counters — the property that makes the study
// reproducible.
func TestRunDeterministic(t *testing.T) {
	render := testCfg()
	render.Frames = 5
	spec := l2spec("l2-2m", 2*1024, 2, 16)
	a := runSpecs(t, workload.Village(), render, spec)[0]
	b := runSpecs(t, workload.Village(), render, spec)[0]
	if a.Totals != b.Totals {
		t.Errorf("totals differ:\n%+v\n%+v", a.Totals, b.Totals)
	}
	for i := range a.Frames {
		if a.Frames[i].Counters != b.Frames[i].Counters {
			t.Fatalf("frame %d counters differ", i)
		}
		if a.Frames[i].Pixels != b.Frames[i].Pixels {
			t.Fatalf("frame %d pixels differ", i)
		}
	}
}

// TestStatsConsistentWithCacheTraffic cross-checks the two measurement
// systems: the §4 minimum bandwidth (unique 4x4 L1 tiles touched * 64B)
// can never exceed the pull architecture's actual download bytes, and the
// actual bytes can never exceed texel references * 64B.
func TestStatsConsistentWithCacheTraffic(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 8
	cfg.Mode = raster.Bilinear
	cfg.StatLayouts = []texture.TileLayout{{L2Size: 4, L1Size: 4}}
	res := runSpecs(t, workload.City(), cfg, pullSpec())[0]
	for i, fr := range res.Frames {
		tiles, _ := fr.Stats.LayoutStats(texture.TileLayout{L2Size: 4, L1Size: 4})
		minBytes := tiles.Blocks * 64
		if fr.Counters.HostBytes < minBytes {
			t.Errorf("frame %d: actual host bytes %d < minimum %d",
				i, fr.Counters.HostBytes, minBytes)
		}
		if max := fr.Stats.TexelRefs * 64; fr.Counters.HostBytes > max {
			t.Errorf("frame %d: host bytes %d > refs*64 %d",
				i, fr.Counters.HostBytes, max)
		}
	}
}

// TestPerFrameDeltasSumToTotals over every counter field.
func TestPerFrameDeltasSumToTotals(t *testing.T) {
	render := testCfg()
	render.Frames = 6
	res := runSpecs(t, workload.Village(), render, l2spec("l2-2m", 2*1024, 2, 16))[0]
	var acc struct {
		l1a, l1m, full, part, miss, host, l2r, l2w, tlbL, tlbH int64
	}
	for _, fr := range res.Frames {
		c := fr.Counters
		acc.l1a += c.L1.Accesses
		acc.l1m += c.L1.Misses
		acc.full += c.L2.FullHits
		acc.part += c.L2.PartialHits
		acc.miss += c.L2.FullMisses
		acc.host += c.HostBytes
		acc.l2r += c.L2ReadBytes
		acc.l2w += c.L2WriteBytes
		acc.tlbL += c.TLB.Lookups
		acc.tlbH += c.TLB.Hits
	}
	tot := res.Totals
	if acc.l1a != tot.L1.Accesses || acc.l1m != tot.L1.Misses ||
		acc.full != tot.L2.FullHits || acc.part != tot.L2.PartialHits ||
		acc.miss != tot.L2.FullMisses || acc.host != tot.HostBytes ||
		acc.l2r != tot.L2ReadBytes || acc.l2w != tot.L2WriteBytes ||
		acc.tlbL != tot.TLB.Lookups || acc.tlbH != tot.TLB.Hits {
		t.Errorf("per-frame deltas do not sum to totals:\nsum %+v\ntot %+v", acc, tot)
	}
}
