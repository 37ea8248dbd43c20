package core_test

import (
	"reflect"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// oracleRender is the oracle tests' render configuration, small enough
// that the race lane (go test -race) runs them on every CI run.
func oracleRender(mode raster.SampleMode) core.Config {
	return core.Config{Width: 192, Height: 144, Frames: 4, Mode: mode}
}

// TestSweepMatchesIndividualRuns is the exact engine's oracle: every
// spec the experiments sweep, simulated through RunComparison's shared
// fan-out, matches core.Oracle's run of that spec alone — totals and
// every frame — on both cache-study scenes in trilinear. The
// off-canonical subtests repeat the check in bilinear for a spec list
// outside the paper's sweep shape, and the point subtest in point
// sampling under the statistics runs' tile granularities, where the
// working set must match too. Each subtest builds its own workload, so
// they run in parallel.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	specs := experiments.SweepSpecs()
	scenes := []struct {
		name string
		load func() *workload.Workload
	}{
		{"village", workload.Village},
		{"city", workload.City},
	}
	for _, tc := range scenes {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkSweepOracle(t, tc.load(), oracleRender(raster.Trilinear), specs)
		})
	}
	t.Run("off-canonical", func(t *testing.T) {
		t.Parallel()
		for _, tc := range scenes {
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				checkSweepOracle(t, tc.load(), oracleRender(raster.Bilinear), offCanonicalSpecs())
			})
		}
	})
	t.Run("point-stats", func(t *testing.T) {
		t.Parallel()
		render := oracleRender(raster.Point)
		render.StatLayouts = experiments.StatLayouts()
		checkSweepOracle(t, workload.Village(), render, specs)
	})

	// The frozen benchmark still sets the deprecated engine fields and
	// reconciles its runs against this engine, so they must stay inert.
	t.Run("deprecated-fields", func(t *testing.T) {
		t.Parallel()
		w := workload.Village()
		want, err := core.RunComparison(w, oracleRender(raster.Trilinear), specs)
		if err != nil {
			t.Fatal(err)
		}
		render := oracleRender(raster.Trilinear)
		render.Parallelism, render.RenderWorkers, render.ReplayWorkers = 4, 4, 4
		got, err := core.RunComparison(w, render, specs)
		if err != nil {
			t.Fatal(err)
		}
		// The configs record the fields verbatim; clear them before
		// demanding identity of everything else.
		zero := func(c *core.Config) { c.Parallelism, c.RenderWorkers, c.ReplayWorkers = 0, 0, 0 }
		zero(&got.Render)
		for _, res := range got.Results {
			zero(&res.Config)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("setting the deprecated engine fields changed the comparison")
		}
	})
}

// checkSweepOracle runs specs through one RunComparison of w under
// render and requires every spec's totals, frames and working-set
// summary to equal core.Oracle's run of that spec alone.
func checkSweepOracle(t *testing.T, w *workload.Workload, render core.Config, specs []core.CacheSpec) {
	t.Helper()
	cmp, err := core.RunComparison(w, render, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != len(specs) {
		t.Fatalf("results = %d, want %d", len(cmp.Results), len(specs))
	}
	for i, spec := range specs {
		cfg := render
		cfg.L1Bytes, cfg.L1Ways = spec.L1Bytes, spec.L1Ways
		cfg.L2, cfg.TLBEntries = spec.L2, spec.TLBEntries
		if i > 0 {
			cfg.StatLayouts = nil // a comparison collects statistics for its first spec only
		}
		want, err := core.Oracle(w, cfg)
		if err != nil {
			t.Fatalf("spec %q: %v", spec.Name, err)
		}
		got := cmp.Results[i]
		if got.Totals != want.Totals {
			t.Errorf("spec %q: totals differ:\nsweep  %+v\noracle %+v",
				spec.Name, got.Totals, want.Totals)
		}
		if !reflect.DeepEqual(got.Frames, want.Frames) {
			t.Errorf("spec %q: per-frame results differ", spec.Name)
		}
		if !reflect.DeepEqual(got.Summary, want.Summary) {
			t.Errorf("spec %q: working-set summary differs:\nsweep  %+v\noracle %+v",
				spec.Name, got.Summary, want.Summary)
		}
	}
}

// offCanonicalSpecs leaves the paper's sweep shape: 1-, 4- and 32-way
// L1s, a 1 KB L1, LRU and random L2s, 8x8 and 32x32 L2 tiles and no
// sector mapping, beside a canonical pull and L2 pair sharing a 2 KB L1.
// The half-megabyte L2s spill even at the oracle's tiny scale.
func offCanonicalSpecs() []core.CacheSpec {
	l2 := func(kb, edge int, p cache.PolicyKind, noSector bool) *cache.L2Config {
		return &cache.L2Config{
			SizeBytes:       kb << 10,
			Layout:          texture.TileLayout{L2Size: edge, L1Size: 4},
			Policy:          p,
			NoSectorMapping: noSector,
		}
	}
	return []core.CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "l2-2m", L1Bytes: 2 << 10, L2: l2(2048, 16, cache.Clock, false), TLBEntries: 16},
		{Name: "l2-512k-nosector", L1Bytes: 2 << 10, L2: l2(512, 16, cache.Clock, true)},
		{Name: "pull-1k", L1Bytes: 1 << 10},
		{Name: "pull-2k-direct", L1Bytes: 2 << 10, L1Ways: 1},
		{Name: "l2-512k-direct-lru", L1Bytes: 2 << 10, L1Ways: 1, L2: l2(512, 16, cache.TrueLRU, false), TLBEntries: 4},
		{Name: "l2-512k-4way-8x8", L1Bytes: 8 << 10, L1Ways: 4, L2: l2(512, 8, cache.Clock, false), TLBEntries: 8},
		{Name: "l2-512k-32way-random-32x32", L1Bytes: 4 << 10, L1Ways: 32, L2: l2(512, 32, cache.Random, false)},
	}
}
