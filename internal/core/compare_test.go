package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"texcache/internal/cache"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

func l2spec(name string, l1, mb int, tlb int) CacheSpec {
	return CacheSpec{
		Name:    name,
		L1Bytes: l1,
		L2: &cache.L2Config{
			SizeBytes: mb << 20,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: tlb,
	}
}

func TestRunComparisonSharedLayouts(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	specs := []CacheSpec{
		l2spec("a", 2*1024, 2, 0),
		l2spec("b", 2*1024, 4, 0),
		l2spec("c", 16*1024, 2, 0),
	}
	cmp, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Larger L2 at same L1 must not increase host traffic.
	if cmp.Results[1].Totals.HostBytes > cmp.Results[0].Totals.HostBytes {
		t.Error("4MB L2 worse than 2MB")
	}
	// Larger L1 at same L2 must not increase L1 misses.
	if cmp.Results[2].Totals.L1.Misses > cmp.Results[0].Totals.L1.Misses {
		t.Error("16KB L1 missed more than 2KB")
	}
	// All specs saw the same reference stream.
	if cmp.Results[0].Totals.L1.Accesses != cmp.Results[2].Totals.L1.Accesses {
		t.Error("specs saw different access counts")
	}
}

// TestRunComparisonWithStats: the working-set statistics the render
// stage collects, taking each footprint whole, are those the oracle
// collects texel by texel.
func TestRunComparisonWithStats(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	render.StatLayouts = []texture.TileLayout{{L2Size: 4, L1Size: 4},
		{L2Size: 16, L1Size: 4}, {L2Size: 32, L1Size: 4}}
	cmp, err := RunComparison(workload.Village(), render,
		[]CacheSpec{{Name: "pull", L1Bytes: 2 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Results[0].Summary == nil {
		t.Fatal("stats not collected")
	}
	if len(cmp.FramePixels) != 4 {
		t.Errorf("frame pixels = %d entries", len(cmp.FramePixels))
	}
	cfg := render
	cfg.L1Bytes = 2 * 1024
	want, err := Oracle(workload.Village(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Results[0]; !reflect.DeepEqual(got.Frames, want.Frames) ||
		!reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("working set differs from the oracle's:\ncomparison %+v\noracle     %+v", got.Summary, want.Summary)
	}
}

// faultyClock panics on its nth reading: a fault in the cache stage,
// since only RunComparison's calling goroutine reads the trace's clock
// (the render stage's goroutine records nothing).
type faultyClock struct{ reads, n int }

func (c *faultyClock) Now() int64 {
	c.reads++
	if c.reads == c.n {
		panic("core: injected cache-stage fault")
	}
	return int64(c.reads)
}

// TestRunComparisonLeavesNoGoroutine: the render stage's goroutine is
// gone after RunComparison returns, with or without working-set
// statistics, and after a panic in the cache stage, where the render
// stage may be waiting for a block the caller will never free.
func TestRunComparisonLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(cfg Config) {
		cfg.Frames = 4
		if _, err := RunComparison(workload.Village(), cfg, telemetrySpecs()); err != nil {
			t.Fatal(err)
		}
	}
	run(testCfg())
	withStats := testCfg()
	withStats.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	run(withStats)
	// Each frame reads the clock at its span's Begin and End and at one
	// replayed/ sample per spec: fail at frame 1's first sample, after
	// the frame's blocks are taken and before its last one is freed.
	faulty := testCfg()
	faulty.Trace = telemetry.NewTrace(&faultyClock{n: 2 + len(telemetrySpecs()) + 3})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the cache-stage fault did not reach the caller")
			}
		}()
		run(faulty)
	}()
	run(testCfg())

	// A goroutine exits just after its last deferred call; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("RunComparison leaked goroutines: %d running, %d before", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunComparisonErrors(t *testing.T) {
	if _, err := RunComparison(workload.Village(), testCfg(), nil); err == nil {
		t.Error("empty specs accepted")
	}
	bad := []CacheSpec{{Name: "bad", L1Bytes: 100}}
	if _, err := RunComparison(workload.Village(), testCfg(), bad); err == nil {
		t.Error("invalid L1 size accepted")
	}
	// L2 tiles that are no power of two, smaller than the 4x4 L1 tile or
	// empty, and L2 sizes that hold no whole tile or a fraction of one.
	for _, c := range []struct{ edge, bytes int }{{7, 2 << 20}, {2, 2 << 20}, {0, 2 << 20}, {16, 0}, {16, 1000}} {
		spec := l2spec("bad-l2", 2*1024, 2, 16)
		spec.L2.Layout.L2Size, spec.L2.SizeBytes = c.edge, c.bytes
		_, err := RunComparison(workload.Village(), testCfg(), []CacheSpec{spec})
		if err == nil || !strings.HasPrefix(err.Error(), `core: spec "bad-l2": `) {
			t.Errorf("L2 of %d bytes in %dx%d tiles: error %v, want one naming the spec", c.bytes, c.edge, c.edge, err)
		}
	}
	// Fully associative L1s of 1 to maxChains+1 lines: one chain each,
	// one more than a record's chain mask can name.
	var wide []CacheSpec
	for ways := 1; ways <= maxChains+1; ways++ {
		wide = append(wide, CacheSpec{Name: "full", L1Bytes: ways * cache.L1LineBytes, L1Ways: ways})
	}
	one := testCfg()
	one.Frames = 1
	if _, err := RunComparison(workload.Village(), one, wide); err == nil {
		t.Errorf("%d L1 associativities accepted", len(wide))
	}
	if _, err := RunComparison(workload.Village(), one, wide[:maxChains]); err != nil {
		t.Errorf("%d L1 associativities: %v", maxChains, err)
	}
	// Texture sets at and one past the bounds of the line key.
	pull := []CacheSpec{{Name: "pull-2k", L1Bytes: 2 << 10}}
	for _, c := range []struct {
		n, w, h int
		ok      bool
	}{
		{1, maxTextureEdge, 1, true},
		{1, 1, maxTextureEdge, true},
		{1, 2 * maxTextureEdge, 1, false},
		{1, 1, 2 * maxTextureEdge, false},
		{maxTextures, 1, 1, true},
		{maxTextures + 1, 1, 1, false},
	} {
		set := texture.NewSet()
		for i := 0; i < c.n; i++ {
			set.Register(texture.MustNew("t", c.w, c.h, texture.L8, nil))
		}
		if _, err := buildFanout(set, pull); (err == nil) != c.ok {
			t.Errorf("%d textures of %dx%d: error %v, want accepted %v", c.n, c.w, c.h, err, c.ok)
		}
	}
}
