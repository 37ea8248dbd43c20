package core

import (
	"fmt"
	"strings"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/model/reusemodel"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// TestModelExactFullyAssociative pins the model's cold-miss and counter
// accounting against the exact simulator on a configuration where the
// model's assumptions hold exactly: a fully-associative true-LRU L1
// (ways == lines) in front of an L2 too large to ever evict. A -fast
// comparison and an exact one render the same reduced-Village stream,
// so every modeled counter must match the exact one and the model's
// rate errors must be zero: full misses are precisely the cold blocks,
// partial hits the cold lines in warm blocks, and evictions zero.
func TestModelExactFullyAssociative(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	const l1Bytes = 2 * 1024
	specs := []CacheSpec{{
		Name:    "exact",
		L1Bytes: l1Bytes,
		L1Ways:  l1Bytes / cache.L1LineBytes, // fully associative = true LRU
		L2: &cache.L2Config{
			SizeBytes: 1 << 30, // never evicts
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
	}}
	exact, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	render.FastSweep = true
	fast, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Model) != 1 || !fast.Model[0].Modeled {
		t.Fatalf("model report missing: %+v", fast.Model)
	}
	want := exact.Results[0].Totals
	if e := reusemodel.Compare(*fast.Model[0].Pred, want); e.L1AbsErr != 0 || e.L2AbsErr != 0 {
		t.Errorf("model rate errors = %+v, want none", e)
	}
	got := fast.Results[0].Totals
	// Victim-search statistics are declared unmodeled; nothing else may
	// differ.
	want.L2.SearchSteps, want.L2.MaxSearch = 0, 0
	if got != want {
		t.Errorf("model diverges from exact simulator:\n got  %+v\n want %+v", got, want)
	}
	if got.L2.Evictions != 0 {
		t.Errorf("evictions = %d in an unevictable L2", got.L2.Evictions)
	}
	if fast.ReuseProfile == nil || fast.ReuseProfile.BlockEdge != 16 {
		t.Fatalf("reuse profile missing or untagged: %+v", fast.ReuseProfile)
	}
}

// TestFastSweepStructure checks the -fast engine's report: every spec
// is modeled and carries Totals and ModelFrames but no per-frame
// results, and spec order, names and frame pixels survive.
func TestFastSweepStructure(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	render.FastSweep = true

	specs := []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 * 1024},
		l2spec("l2-4m", 2*1024, 4, 0),
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
		if cmp.Specs[i] != spec.Name || cmp.Model[i].Spec != spec.Name {
			t.Errorf("spec %d = %q, model entry %q, want %q", i, cmp.Specs[i], cmp.Model[i].Spec, spec.Name)
		}
	}
	if len(cmp.FramePixels) != 4 {
		t.Errorf("frame pixels = %d entries", len(cmp.FramePixels))
	}
	for i := range specs {
		res := cmp.Results[i]
		if !cmp.Model[i].Modeled {
			t.Errorf("%s: model entry = %+v, want modeled", cmp.Specs[i], cmp.Model[i])
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
}

// TestFastSweepRefusesUnreachableSpecs: a spec outside the model's reach
// fails the whole -fast sweep with an error that names it, beside a
// spec the model reaches.
func TestFastSweepRefusesUnreachableSpecs(t *testing.T) {
	render := testCfg()
	render.Frames = 1
	render.FastSweep = true
	direct := CacheSpec{Name: "pull-direct", L1Bytes: 2 * 1024, L1Ways: 1}
	random := l2spec("l2-random", 2*1024, 2, 0)
	random.L2.Policy = cache.Random
	whole := l2spec("l2-nosector", 2*1024, 2, 0)
	whole.L2.NoSectorMapping = true
	tile8 := l2spec("l2-tile8", 2*1024, 2, 0)
	tile8.L2.Layout.L2Size = 8
	for _, bad := range []CacheSpec{direct, random, whole, tile8} {
		specs := []CacheSpec{l2spec("l2-2m", 2*1024, 2, 16), bad}
		cmp, err := RunComparison(workload.Village(), render, specs)
		if cmp != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad.Name)) {
			t.Errorf("%s: comparison %v, error %v; want only an error naming the spec", bad.Name, cmp, err)
		}
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
			t.Fatalf("%s not modeled", specs[i].Name)
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
