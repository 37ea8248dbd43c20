package stats_test

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/stats"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

var layout4 = texture.TileLayout{L2Size: 4, L1Size: 4}

// sampleFrame is a hand-computable frame: depth complexity 2 over 100
// screen pixels, utilization 320/(10*16) = 2 at the 4x4 granularity.
func sampleFrame() stats.Frame {
	f := stats.Frame{
		Index:           0,
		Pixels:          200,
		TexelRefs:       320,
		TexturesTouched: 3,
		PushBytes:       5000,
		HostLoadedBytes: 7777,
		PerLayout: []stats.LayoutFrame{
			{Layout: layout4, Blocks: 10, NewBlocks: 4},
		},
	}
	f.LevelRefs[0] = 300
	f.LevelRefs[1] = 20
	return f
}

func TestSummarize(t *testing.T) {
	blockBytes := float64(layout4.L2BlockBytes()) // 4*4*4 = 64

	single := stats.Summary{
		Frames:          1,
		ScreenPixels:    100,
		DepthComplexity: 2,
		AvgTexelRefs:    320,
		AvgPushBytes:    5000,
		MaxPushBytes:    5000,
		HostLoadedBytes: 7777,
		PerLayout: []stats.LayoutSummary{{
			Layout:       layout4,
			AvgBlocks:    10,
			AvgNewBlocks: 4,
			MaxBlocks:    10,
			AvgBytes:     10 * blockBytes,
			AvgNewBytes:  4 * blockBytes,
			MaxBytes:     10 * int64(blockBytes),
			Utilization:  2,
		}},
	}
	single.LevelRefs[0] = 300
	single.LevelRefs[1] = 20

	// Averages over identical frames equal the single-frame values except
	// the level histogram, which accumulates.
	identical := single
	identical.Frames = 3
	identical.LevelRefs[0] = 900
	identical.LevelRefs[1] = 60

	cases := []struct {
		name         string
		frames       []stats.Frame
		screenPixels int64
		want         stats.Summary
	}{
		{
			name:         "empty",
			frames:       nil,
			screenPixels: 100,
			want:         stats.Summary{Frames: 0, ScreenPixels: 100},
		},
		{
			name:         "single frame",
			frames:       []stats.Frame{sampleFrame()},
			screenPixels: 100,
			want:         single,
		},
		{
			name:         "all identical frames",
			frames:       []stats.Frame{sampleFrame(), sampleFrame(), sampleFrame()},
			screenPixels: 100,
			want:         identical,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := stats.Summarize(tc.frames, tc.screenPixels)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Summarize() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestSummarizeZeroScreenPixels(t *testing.T) {
	s := stats.Summarize([]stats.Frame{sampleFrame()}, 0)
	if s.DepthComplexity != 0 {
		t.Errorf("DepthComplexity = %v with zero screen pixels, want 0", s.DepthComplexity)
	}
}

func TestSummaryLayoutLookup(t *testing.T) {
	s := stats.Summarize([]stats.Frame{sampleFrame()}, 100)
	if ls, ok := s.Layout(layout4); !ok || ls.MaxBlocks != 10 {
		t.Errorf("Layout(%v) = %+v, %v; want hit with MaxBlocks 10", layout4, ls, ok)
	}
	if _, ok := s.Layout(texture.TileLayout{L2Size: 32, L1Size: 4}); ok {
		t.Error("Layout() reported a hit for an untracked granularity")
	}
}

// Golden values for the reduced Village run below, a one-spec
// RunComparison with the collector riding the engine's render stage.
// Regenerate by running the test with -run TestSummarizeVillageGolden -v
// and copying the logged actuals; the simulation is deterministic, so
// drift means behaviour changed.
const (
	goldenFrames          = 4
	goldenDepthComplexity = "3.2777864583333334"
	goldenAvgTexelRefs    = "62933.5"
	goldenMaxPushBytes    = 17607330
	goldenHostLoaded      = 17607330
	goldenAvgBlocks       = "135.25"
	goldenMaxBlocks       = 178
	goldenUtilization     = "1.8270452823898682"
)

func TestSummarizeVillageGolden(t *testing.T) {
	layout := texture.TileLayout{L2Size: 16, L1Size: 4}
	cfg := core.Config{
		Width:       160,
		Height:      120,
		Frames:      goldenFrames,
		Mode:        raster.Point,
		StatLayouts: []texture.TileLayout{layout},
	}
	cmp, err := core.RunComparison(workload.Village(), cfg,
		[]core.CacheSpec{{Name: "pull-2k", L1Bytes: 2 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	res := cmp.Results[0]
	s := res.Summary
	if s == nil {
		t.Fatal("RunComparison returned no Summary despite StatLayouts")
	}
	ls, ok := s.Layout(layout)
	if !ok {
		t.Fatalf("Summary tracks %v but Layout() missed", layout)
	}
	t.Logf("actuals: depth=%.6f texels=%.6f maxPush=%d host=%d avgBlocks=%.1f maxBlocks=%d util=%.1f",
		s.DepthComplexity, s.AvgTexelRefs, s.MaxPushBytes, s.HostLoadedBytes,
		ls.AvgBlocks, ls.MaxBlocks, ls.Utilization)

	if s.Frames != goldenFrames {
		t.Errorf("Frames = %d, want %d", s.Frames, goldenFrames)
	}
	checkF(t, "DepthComplexity", s.DepthComplexity, goldenDepthComplexity)
	checkF(t, "AvgTexelRefs", s.AvgTexelRefs, goldenAvgTexelRefs)
	if s.MaxPushBytes != goldenMaxPushBytes {
		t.Errorf("MaxPushBytes = %d, want %d", s.MaxPushBytes, goldenMaxPushBytes)
	}
	if s.HostLoadedBytes != goldenHostLoaded {
		t.Errorf("HostLoadedBytes = %d, want %d", s.HostLoadedBytes, goldenHostLoaded)
	}
	checkF(t, "AvgBlocks", ls.AvgBlocks, goldenAvgBlocks)
	if ls.MaxBlocks != goldenMaxBlocks {
		t.Errorf("MaxBlocks = %d, want %d", ls.MaxBlocks, goldenMaxBlocks)
	}
	checkF(t, "Utilization", ls.Utilization, goldenUtilization)
	if want := ls.MaxBlocks * int64(layout.L2BlockBytes()); ls.MaxBytes != want {
		t.Errorf("MaxBytes = %d, inconsistent with MaxBlocks (%d)", ls.MaxBytes, want)
	}

	// The summary must agree with re-reducing the per-frame series.
	var frames []stats.Frame
	for _, fr := range res.Frames {
		if fr.Stats == nil {
			t.Fatal("frame missing Stats despite StatLayouts")
		}
		frames = append(frames, *fr.Stats)
	}
	redo := stats.Summarize(frames, int64(cfg.Width)*int64(cfg.Height))
	if !reflect.DeepEqual(redo, *s) {
		t.Errorf("re-reduced summary disagrees:\n got %+v\nwant %+v", redo, *s)
	}
}

// checkF compares a float against its golden decimal rendering to 1e-9
// relative tolerance, keeping the checked-in constants human-readable.
func checkF(t *testing.T, name string, got float64, golden string) {
	t.Helper()
	want, err := strconv.ParseFloat(golden, 64)
	if err != nil {
		t.Fatalf("bad golden for %s: %v", name, err)
	}
	if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %s", name, got, golden)
	}
}
