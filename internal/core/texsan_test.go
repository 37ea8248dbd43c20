//go:build texsan

package core

import (
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// These tests exist for the texsan lane (go test -tags texsan ./...):
// they drive reduced Village and City animations through the paper's
// baseline hierarchy with the runtime invariant sanitizer compiled in, so
// every access replays the counter identities and every 4096th access
// cross-checks the page table, BRL and weak L1/L2 inclusion. A panic
// inside the cache package fails the test. The Reduced and
// PullArchitecture tests drive Hierarchy.Access through Oracle, the path
// ReplayTrace runs; TestTexsanSweepFanout drives the engine.

// sanConfig is the paper's baseline configuration at a reduced scale.
func sanConfig(frames int) Config {
	return Config{
		Width: 256, Height: 192, Frames: frames,
		Mode:    raster.Trilinear,
		L1Bytes: 2 << 10,
		L2: &cache.L2Config{
			SizeBytes: 2 << 20,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
}

func runSanitized(t *testing.T, w *workload.Workload, cfg Config) {
	t.Helper()
	res, err := Oracle(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.L1.Accesses == 0 || res.Totals.L2.Accesses() == 0 {
		t.Fatalf("%s produced no cache activity: %+v", w.Name, res.Totals)
	}
}

func TestTexsanVillageReduced(t *testing.T) {
	runSanitized(t, workload.Village(), sanConfig(12))
}

func TestTexsanCityReduced(t *testing.T) {
	runSanitized(t, workload.City(), sanConfig(12))
}

func TestTexsanVillagePullArchitecture(t *testing.T) {
	cfg := sanConfig(6)
	cfg.L2 = nil
	cfg.TLBEntries = 0
	w := workload.Village()
	res, err := Oracle(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.HostBytes != res.Totals.L1.Misses*cache.L1LineBytes {
		t.Fatalf("pull bandwidth identity violated: %+v", res.Totals)
	}
}

// TestTexsanSweepFanout drives the exact engine's fan-out under the
// sanitizer: pull, L2 and TLB variants share one 2 KB L1, so every
// sharing hierarchy's identities must hold when it sees only the misses
// of an L1 it does not drive. The 512 KB L2 spills, so the weak-inclusion
// scan retires evicted fills, and l2-512k-tlb-2 shares that L2 (as tlb-1
// shares l2-2m's), so each of its hierarchies must be told of every
// eviction, including those the other hierarchy's access caused.
func TestTexsanSweepFanout(t *testing.T) {
	render := sanConfig(6)
	base := *render.L2
	l2 := func(size int, noSector bool) *cache.L2Config {
		c := base
		c.SizeBytes, c.NoSectorMapping = size, noSector
		return &c
	}
	specs := []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "l2-2m", L1Bytes: 2 << 10, L2: l2(2<<20, false), TLBEntries: 16},
		{Name: "l2-512k", L1Bytes: 2 << 10, L2: l2(512<<10, false)},
		{Name: "l2-512k-nosector", L1Bytes: 2 << 10, L2: l2(512<<10, true)},
		{Name: "tlb-1", L1Bytes: 2 << 10, L2: l2(2<<20, false), TLBEntries: 1},
		{Name: "l2-512k-tlb-2", L1Bytes: 2 << 10, L2: l2(512<<10, false), TLBEntries: 2},
	}
	cmp, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	l1 := cmp.Results[0].Totals.L1
	if l1.Accesses == 0 || l1.Misses == 0 {
		t.Fatalf("no L1 activity: %+v", l1)
	}
	for i, res := range cmp.Results {
		if res.Totals.L1 != l1 {
			t.Errorf("%s: L1 %+v, want the shared L1's %+v", specs[i].Name, res.Totals.L1, l1)
		}
		if specs[i].L2 != nil && res.Totals.L2.Accesses() != l1.Misses {
			t.Errorf("%s: %d L2 accesses for %d L1 misses", specs[i].Name, res.Totals.L2.Accesses(), l1.Misses)
		}
	}
	if cmp.Results[2].Totals.L2.Evictions == 0 {
		t.Error("the 512 KB L2 never evicted")
	}
}
