package core

import (
	"reflect"
	"strings"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// TestModelExactFullyAssociative pins the model's cold-miss and counter
// accounting against the exact simulator on a configuration where the
// model's assumptions hold exactly: a fully-associative true-LRU L1
// (ways == lines) in front of an L2 too large to ever evict. Both sides
// derive from the same reduced-Village render — the probe taps the very
// stream the hierarchy simulates — so every counter must match exactly:
// full misses are precisely the cold blocks, partial hits the cold
// lines in warm blocks, and evictions zero.
func TestModelExactFullyAssociative(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	render.CollectReuse = true
	const l1Bytes = 2 * 1024
	spec := CacheSpec{
		Name:    "exact",
		L1Bytes: l1Bytes,
		L1Ways:  l1Bytes / cache.L1LineBytes, // fully associative = true LRU
		L2: &cache.L2Config{
			SizeBytes: 1 << 30, // never evicts
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
	}
	cmp, err := RunComparison(workload.Village(), render, []CacheSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Model) != 1 || !cmp.Model[0].Modeled || !cmp.Model[0].HasExact {
		t.Fatalf("model report missing: %+v", cmp.Model)
	}
	got := cmp.Model[0].Pred.Counters()
	want := cmp.Results[0].Totals
	// Victim-search statistics are declared unmodeled; nothing else may
	// differ.
	want.L2.SearchSteps, want.L2.MaxSearch = 0, 0
	if got != want {
		t.Errorf("model diverges from exact simulator:\n got  %+v\n want %+v", got, want)
	}
	if got.L2.Evictions != 0 {
		t.Errorf("evictions = %d in an unevictable L2", got.L2.Evictions)
	}
	if cmp.ReuseProfile == nil || cmp.ReuseProfile.BlockEdge != 16 {
		t.Fatalf("reuse profile missing or untagged: %+v", cmp.ReuseProfile)
	}
}

// TestFastSweepStructure checks the -fast engine's partitioning: modeled
// specs carry Totals and ModelFrames but no per-frame results,
// unreachable specs (here: random replacement) are replayed exactly, and
// spec order, names and frame pixels survive the reassembly.
func TestFastSweepStructure(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	render.FastSweep = true

	random := l2spec("l2-random", 2*1024, 2, 0)
	random.L2.Policy = cache.Random
	specs := []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 * 1024},
		random,
		l2spec("l2-2m", 2*1024, 2, 16),
	}
	cmp, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 3 || len(cmp.Model) != 3 {
		t.Fatalf("results/model = %d/%d entries", len(cmp.Results), len(cmp.Model))
	}
	for i, spec := range specs {
		if cmp.Specs[i] != spec.Name {
			t.Errorf("spec %d = %q, want %q", i, cmp.Specs[i], spec.Name)
		}
	}
	if len(cmp.FramePixels) != 4 {
		t.Errorf("frame pixels = %d entries", len(cmp.FramePixels))
	}
	// pull-2k and l2-2m are modeled; l2-random replays.
	for _, i := range []int{0, 2} {
		res := cmp.Results[i]
		if !cmp.Model[i].Modeled || cmp.Model[i].HasExact {
			t.Errorf("%s: model entry = %+v, want modeled without exact", cmp.Specs[i], cmp.Model[i])
		}
		if len(res.Frames) != 0 || res.ModelFrames != 4 {
			t.Errorf("%s: frames/modelframes = %d/%d, want 0/4",
				cmp.Specs[i], len(res.Frames), res.ModelFrames)
		}
		if res.Totals.L1.Accesses == 0 {
			t.Errorf("%s: empty modeled totals", cmp.Specs[i])
		}
		if res.AvgHostMBPerFrame() <= 0 {
			t.Errorf("%s: AvgHostMBPerFrame = %v", cmp.Specs[i], res.AvgHostMBPerFrame())
		}
	}
	if m := cmp.Model[1]; m.Modeled || !strings.Contains(m.Unreachable, "random") {
		t.Errorf("random-policy model entry = %+v, want unreachable", m)
	}
	if res := cmp.Results[1]; len(res.Frames) != 4 {
		t.Errorf("replayed spec frames = %d, want 4", len(res.Frames))
	}
	// The fallback is the exact engine with the probe riding its render
	// pass, so it matches an exact sweep of the refused spec alone.
	exactRender := render
	exactRender.FastSweep = false
	exact, err := RunComparison(workload.Village(), exactRender, []CacheSpec{random})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cmp.Results[1], exact.Results[0]; got.Totals != want.Totals ||
		!reflect.DeepEqual(got.Frames, want.Frames) {
		t.Errorf("fallback results differ from the exact sweep:\nfast  %+v\nexact %+v", got.Totals, want.Totals)
	}
	// All specs saw the same stream, whether modeled or replayed.
	if cmp.Results[0].Totals.L1.Accesses != cmp.Results[1].Totals.L1.Accesses {
		t.Errorf("modeled accesses %d != replayed accesses %d",
			cmp.Results[0].Totals.L1.Accesses, cmp.Results[1].Totals.L1.Accesses)
	}
	errs := cmp.ModelErrors()
	if len(errs) != 3 || errs[1].Modeled || !errs[0].Modeled {
		t.Errorf("manifest model report = %+v", errs)
	}
}

// TestFastSweepTLBExact pins the -fast TLB strategy: a modeled TLB
// spec's TLB statistics come from a real TLB behind a real L1 filter
// inside the probe and must equal the exact simulator's bit for bit.
func TestFastSweepTLBExact(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	specs := []CacheSpec{
		l2spec("l2-2m", 2*1024, 2, 16),
		l2spec("tlb-2", 2*1024, 2, 2),
	}

	fast := render
	fast.FastSweep = true
	fcmp, err := RunComparison(workload.Village(), fast, specs)
	if err != nil {
		t.Fatal(err)
	}
	ecmp, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !fcmp.Model[i].Modeled {
			t.Fatalf("%s not modeled: %s", specs[i].Name, fcmp.Model[i].Unreachable)
		}
		got, want := fcmp.Results[i].Totals.TLB, ecmp.Results[i].Totals.TLB
		if got != want {
			t.Errorf("%s: fast TLB stats %+v != exact %+v", specs[i].Name, got, want)
		}
		if got.Lookups == 0 {
			t.Errorf("%s: no TLB lookups recorded", specs[i].Name)
		}
	}
}

// TestFastSweepRejectsStats documents the one unsupported combination.
func TestFastSweepRejectsStats(t *testing.T) {
	render := testCfg()
	render.FastSweep = true
	render.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	_, err := RunComparison(workload.Village(), render,
		[]CacheSpec{{Name: "pull", L1Bytes: 2 * 1024}})
	if err == nil {
		t.Fatal("fast sweep with StatLayouts accepted")
	}
}
