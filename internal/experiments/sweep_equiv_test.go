package experiments

import (
	"reflect"
	"testing"

	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/workload"
)

// oracleRender is the oracle tests' render configuration, small enough
// that the race lane (go test -race) runs them on every CI run; they are
// deliberately not gated by raceEnabled.
func oracleRender() core.Config {
	return core.Config{Width: 192, Height: 144, Frames: 4, Mode: raster.Trilinear}
}

// TestSweepMatchesIndividualRuns is the exact engine's oracle: every
// spec the experiments sweep, simulated through RunComparison's shared
// fan-out, matches an independent core.Run of that spec alone — totals
// and every frame — on both cache-study scenes. Each subtest builds its
// own workload, so they run in parallel.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	specs := SweepSpecs()
	for _, tc := range []struct {
		name string
		load func() *workload.Workload
	}{
		{"village", workload.Village},
		{"city", workload.City},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := tc.load()
			render := oracleRender()
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
				want, err := core.Run(w, cfg)
				if err != nil {
					t.Fatalf("spec %q: %v", spec.Name, err)
				}
				got := cmp.Results[i]
				if got.Totals != want.Totals {
					t.Errorf("spec %q: totals differ:\nsweep %+v\nrun   %+v",
						spec.Name, got.Totals, want.Totals)
				}
				if !reflect.DeepEqual(got.Frames, want.Frames) {
					t.Errorf("spec %q: per-frame results differ", spec.Name)
				}
			}
		})
	}

	// The frozen benchmark still sets the deprecated engine fields and
	// reconciles its runs against this engine, so they must stay inert.
	t.Run("deprecated-fields", func(t *testing.T) {
		t.Parallel()
		w := workload.Village()
		want, err := core.RunComparison(w, oracleRender(), specs)
		if err != nil {
			t.Fatal(err)
		}
		render := oracleRender()
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
