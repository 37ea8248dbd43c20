package cache_test

import (
	"testing"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// TestTLBGoldenCounters pins the TLB lookup/hit counters of the paper's
// baseline hierarchy on reduced-scale Village (512x384, 80 frames,
// trilinear, 2KB L1, 2MB L2 of 16x16 tiles, 16-entry TLB). The hot-probe
// fast path in TLB.Lookup must not change which lookups hit: it only
// short-circuits the scan when the most recently touched entry matches,
// and membership plus round-robin victim choice are untouched. These
// counters were captured before the fast path landed and must never move.
// They are read from a one-spec RunComparison, the engine every command
// runs.
func TestTLBGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale render in -short mode")
	}
	render := core.Config{
		Width:  512,
		Height: 384,
		Frames: 80,
		Mode:   raster.Trilinear,
	}
	spec := core.CacheSpec{
		Name:    "l2-2m",
		L1Bytes: 2 * 1024,
		L2: &cache.L2Config{
			SizeBytes: 2 * 1024 * 1024,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
	cmp, err := core.RunComparison(workload.Village(), render, []core.CacheSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	res := cmp.Results[0]
	const (
		wantLookups = int64(17041996)
		wantHits    = int64(15359878)
	)
	got := res.Totals.TLB
	if got.Lookups != wantLookups || got.Hits != wantHits {
		t.Errorf("reduced-Village TLB counters = {Lookups:%d Hits:%d}, want {Lookups:%d Hits:%d}",
			got.Lookups, got.Hits, wantLookups, wantHits)
	}
}
