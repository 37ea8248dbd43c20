package core

import (
	"bytes"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// testCfg is a small, fast configuration used across tests.
func testCfg() Config {
	return Config{
		Width: 256, Height: 192,
		Frames:  10,
		Mode:    raster.Bilinear,
		L1Bytes: 2 * 1024,
	}
}

func withL2(cfg Config, mb int) Config {
	cfg.L2 = &cache.L2Config{
		SizeBytes: mb << 20,
		Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
		Policy:    cache.Clock,
	}
	cfg.TLBEntries = 16
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := testCfg()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = testCfg()
	bad.L1Bytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero L1 accepted")
	}
	bad = withL2(testCfg(), 2)
	bad.L2.Layout = texture.TileLayout{L2Size: 3, L1Size: 4}
	if err := bad.Validate(); err == nil {
		t.Error("bad L2 layout accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// runSpecs runs one comparison of specs over w and returns its results,
// parallel to specs.
func runSpecs(t *testing.T, w *workload.Workload, render Config, specs ...CacheSpec) []*Results {
	t.Helper()
	cmp, err := RunComparison(w, render, specs)
	if err != nil {
		t.Fatal(err)
	}
	return cmp.Results
}

// pullSpec is the paper's baseline pull architecture: a 2 KB L1 alone.
func pullSpec() CacheSpec { return CacheSpec{Name: "pull-2k", L1Bytes: 2 * 1024} }

func TestRunPullArchitecture(t *testing.T) {
	res := runSpecs(t, workload.Village(), testCfg(), pullSpec())[0]
	if len(res.Frames) != 10 {
		t.Fatalf("frames = %d", len(res.Frames))
	}
	if res.Totals.L1.Accesses == 0 {
		t.Fatal("no texel accesses")
	}
	// The pull architecture downloads a 64-byte L1 tile per miss.
	if want := res.Totals.L1.Misses * cache.L1LineBytes; res.Totals.HostBytes != want {
		t.Errorf("HostBytes = %d, want %d", res.Totals.HostBytes, want)
	}
	// L1 hit rates on real workloads are high (paper Table 2: > 0.95).
	if hr := res.Totals.L1.HitRate(); hr < 0.90 {
		t.Errorf("L1 hit rate = %.3f, want > 0.90", hr)
	}
	// Per-frame deltas must sum to the totals.
	var host int64
	for _, f := range res.Frames {
		host += f.Counters.HostBytes
	}
	if host != res.Totals.HostBytes {
		t.Errorf("frame deltas sum %d != totals %d", host, res.Totals.HostBytes)
	}
}

func TestL2SavesHostBandwidth(t *testing.T) {
	res := runSpecs(t, workload.Village(), testCfg(), pullSpec(), l2spec("l2-2m", 2*1024, 2, 16))
	pull, l2 := res[0], res[1]
	// The headline result: even a 2 MB L2 slashes host bandwidth. At
	// paper scale the factor is 5-18x; at test scale demand at least 3x.
	ratio := float64(pull.Totals.HostBytes) / float64(l2.Totals.HostBytes)
	if ratio < 3 {
		t.Errorf("host bandwidth ratio pull/L2 = %.2f, want >= 3", ratio)
	}
	// L1 behaviour must be identical across architectures (same stream).
	if pull.Totals.L1.Misses != l2.Totals.L1.Misses {
		t.Errorf("L1 misses differ: pull %d vs L2 %d",
			pull.Totals.L1.Misses, l2.Totals.L1.Misses)
	}
	// L2 hit + partial + miss must equal L1 misses.
	if got := l2.Totals.L2.Accesses(); got != l2.Totals.L1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", got, l2.Totals.L1.Misses)
	}
	// With L2, host bytes only flow on partial hits and misses.
	want := (l2.Totals.L2.PartialHits + l2.Totals.L2.FullMisses) * cache.L1LineBytes
	if l2.Totals.HostBytes != want {
		t.Errorf("HostBytes = %d, want %d", l2.Totals.HostBytes, want)
	}
}

func TestBiggerL1ReducesMisses(t *testing.T) {
	res := runSpecs(t, workload.Village(), testCfg(),
		pullSpec(), CacheSpec{Name: "pull-16k", L1Bytes: 16 * 1024})
	small, big := res[0], res[1]
	if big.Totals.L1.Misses >= small.Totals.L1.Misses {
		t.Errorf("16KB L1 misses (%d) >= 2KB L1 misses (%d)",
			big.Totals.L1.Misses, small.Totals.L1.Misses)
	}
}

func TestBiggerL2ReducesHostBytes(t *testing.T) {
	res := runSpecs(t, workload.City(), testCfg(),
		l2spec("l2-1m", 2*1024, 1, 16), l2spec("l2-8m", 2*1024, 8, 16))
	a, b := res[0], res[1]
	if b.Totals.HostBytes > a.Totals.HostBytes {
		t.Errorf("8MB L2 host bytes (%d) > 1MB L2 host bytes (%d)",
			b.Totals.HostBytes, a.Totals.HostBytes)
	}
}

func TestZBeforeTextureReducesTraffic(t *testing.T) {
	base := runSpecs(t, workload.Village(), testCfg(), pullSpec())[0]
	zcfg := testCfg()
	zcfg.ZBeforeTexture = true
	z := runSpecs(t, workload.Village(), zcfg, pullSpec())[0]
	if z.Totals.L1.Accesses >= base.Totals.L1.Accesses {
		t.Errorf("z-before-texture accesses %d >= baseline %d",
			z.Totals.L1.Accesses, base.Totals.L1.Accesses)
	}
	var zp, bp int64
	for i := range z.Frames {
		zp += z.Frames[i].Pixels
		bp += base.Frames[i].Pixels
	}
	if zp >= bp {
		t.Errorf("z-before-texture pixels %d >= baseline %d", zp, bp)
	}
}

func TestStatsCollection(t *testing.T) {
	cfg := testCfg()
	cfg.Mode = raster.Point
	cfg.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	res := runSpecs(t, workload.City(), cfg, pullSpec())[0]
	if res.Summary == nil {
		t.Fatal("no summary")
	}
	if res.Summary.DepthComplexity <= 1 {
		t.Errorf("depth complexity = %v, want > 1", res.Summary.DepthComplexity)
	}
	ls, ok := res.Summary.Layout(texture.TileLayout{L2Size: 16, L1Size: 4})
	if !ok || ls.AvgBlocks == 0 {
		t.Fatal("no layout stats")
	}
	// Inter-frame locality: new blocks must be a small fraction of total.
	if ls.AvgNewBlocks/ls.AvgBlocks > 0.5 {
		t.Errorf("new/total blocks = %.2f, want < 0.5 (inter-frame locality)",
			ls.AvgNewBlocks/ls.AvgBlocks)
	}
	for _, f := range res.Frames {
		if f.Stats == nil {
			t.Fatal("frame missing stats")
		}
	}
}

func TestTraceReplayMatchesDirectRun(t *testing.T) {
	w := workload.City()
	cfg := withL2(testCfg(), 2)
	cfg.Frames = 6

	direct, err := Oracle(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	frames, err := RecordTrace(workload.City(), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 6 {
		t.Fatalf("recorded frames = %d", frames)
	}
	replayed, err := ReplayTrace(&buf, workload.City().Scene.Textures, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Transaction-exact equivalence between rendering and replay.
	if direct.Totals != replayed.Totals {
		t.Errorf("totals differ:\ndirect  %+v\nreplay  %+v",
			direct.Totals, replayed.Totals)
	}
	if len(direct.Frames) != len(replayed.Frames) {
		t.Fatalf("frame counts differ")
	}
	for i := range direct.Frames {
		if direct.Frames[i].Counters != replayed.Frames[i].Counters {
			t.Errorf("frame %d counters differ", i)
		}
		if direct.Frames[i].Pixels != replayed.Frames[i].Pixels {
			t.Errorf("frame %d pixels differ", i)
		}
	}
}

func TestAvgHostMBPerFrame(t *testing.T) {
	r := &Results{
		Frames: make([]FrameResult, 4),
		Totals: cache.Counters{HostBytes: 8 << 20},
	}
	if got := r.AvgHostMBPerFrame(); got != 2 {
		t.Errorf("AvgHostMBPerFrame = %v, want 2", got)
	}
	var empty Results
	if empty.AvgHostMBPerFrame() != 0 {
		t.Error("empty results nonzero")
	}
}

func TestTLBHitRateImprovesWithEntries(t *testing.T) {
	render := testCfg()
	render.Frames = 5
	res := runSpecs(t, workload.Village(), render,
		l2spec("tlb-1", 2*1024, 2, 1), l2spec("tlb-4", 2*1024, 2, 4), l2spec("tlb-16", 2*1024, 2, 16))
	rates := make([]float64, 0, len(res))
	for _, r := range res {
		rates = append(rates, r.Totals.TLB.HitRate())
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Errorf("TLB hit rates not increasing: %v", rates)
	}
	// Paper Table 8: 16 entries capture > 90%.
	if rates[2] < 0.80 {
		t.Errorf("16-entry TLB hit rate = %.2f, want > 0.80", rates[2])
	}
}

// TestFramesDefaultToWorkloadCount: a render with no frame count runs
// the workload's own.
func TestFramesDefaultToWorkloadCount(t *testing.T) {
	w := workload.Village()
	w.Frames = 2
	render := Config{Width: 32, Height: 24, Mode: raster.Bilinear}
	cmp, err := RunComparison(w, render, []CacheSpec{pullSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Render.Frames != 2 || len(cmp.FramePixels) != 2 || len(cmp.Results[0].Frames) != 2 {
		t.Errorf("frames = %d (%d pixel counts, %d results), want 2",
			cmp.Render.Frames, len(cmp.FramePixels), len(cmp.Results[0].Frames))
	}
}
