package stats

import (
	"reflect"
	"testing"

	"texcache/internal/texture"
)

func testSet(t *testing.T) *texture.Set {
	t.Helper()
	s := texture.NewSet()
	s.Register(texture.MustNew("a", 64, 64, texture.RGBA8888, nil))
	s.Register(texture.MustNew("b", 32, 32, texture.L8, nil))
	return s
}

var l16 = texture.TileLayout{L2Size: 16, L1Size: 4}
var l4 = texture.TileLayout{L2Size: 4, L1Size: 4}

func TestCollectorUniqueBlocks(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	// Four texels in the same 16x16 block: one unique block.
	for _, uv := range [][2]int{{0, 0}, {1, 1}, {15, 15}, {8, 3}} {
		c.Texel(0, uv[0], uv[1], 0)
	}
	// One texel in a different block.
	c.Texel(0, 16, 0, 0)
	f := c.EndFrame()
	if f.TexelRefs != 5 {
		t.Errorf("TexelRefs = %d, want 5", f.TexelRefs)
	}
	l, _ := f.LayoutStats(l16)
	if l.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2", l.Blocks)
	}
	if l.NewBlocks != 2 {
		t.Errorf("NewBlocks = %d, want 2 (all new in frame 0)", l.NewBlocks)
	}
}

func TestCollectorNewVsRepeatedBlocks(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)

	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 16, 0, 0)
	c.EndFrame()

	// Frame 1 revisits one block and adds one.
	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 32, 0, 0)
	f := c.EndFrame()
	l, _ := f.LayoutStats(l16)
	if l.Blocks != 2 || l.NewBlocks != 1 {
		t.Errorf("frame 1: blocks=%d new=%d, want 2/1", l.Blocks, l.NewBlocks)
	}

	// Frame 2 revisits a block from frame 0 that frame 1 skipped: it
	// counts as new again (inter-frame working set is frame-to-frame).
	c.BeginFrame()
	c.Texel(0, 16, 0, 0)
	f = c.EndFrame()
	l, _ = f.LayoutStats(l16)
	if l.Blocks != 1 || l.NewBlocks != 1 {
		t.Errorf("frame 2: blocks=%d new=%d, want 1/1", l.Blocks, l.NewBlocks)
	}
}

func TestCollectorDistinguishesMipLevels(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 0, 0, 1) // same coordinates, different level: new block
	f := c.EndFrame()
	l, _ := f.LayoutStats(l16)
	if l.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2 (levels are distinct blocks)", l.Blocks)
	}
}

func TestCollectorDistinguishesTextures(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(1, 0, 0, 0)
	f := c.EndFrame()
	l, _ := f.LayoutStats(l16)
	if l.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2 (textures are distinct)", l.Blocks)
	}
	if f.TexturesTouched != 2 {
		t.Errorf("TexturesTouched = %d, want 2", f.TexturesTouched)
	}
}

func TestCollectorPushBytes(t *testing.T) {
	set := testSet(t)
	a, b := set.ByID(0), set.ByID(1)
	c := MustNewCollector(set, l16)

	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	f := c.EndFrame()
	if f.PushBytes != a.HostBytes() {
		t.Errorf("PushBytes = %d, want %d", f.PushBytes, a.HostBytes())
	}

	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 5, 5, 0)
	c.Texel(1, 0, 0, 0)
	f = c.EndFrame()
	if want := a.HostBytes() + b.HostBytes(); f.PushBytes != want {
		t.Errorf("PushBytes = %d, want %d", f.PushBytes, want)
	}
	if f.HostLoadedBytes != set.HostBytes() {
		t.Errorf("HostLoadedBytes = %d, want %d", f.HostLoadedBytes, set.HostBytes())
	}
}

func TestCollectorMultipleLayouts(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16, l4)
	c.BeginFrame()
	// Texels at (0,0) and (8,8): same 16x16 block, different 4x4 tiles.
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 8, 8, 0)
	f := c.EndFrame()
	big, _ := f.LayoutStats(l16)
	small, _ := f.LayoutStats(l4)
	if big.Blocks != 1 {
		t.Errorf("16x16 blocks = %d, want 1", big.Blocks)
	}
	if small.Blocks != 2 {
		t.Errorf("4x4 tiles = %d, want 2", small.Blocks)
	}
}

func TestUtilization(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	// 512 references all within one 16x16 block (256 texels):
	// utilisation = 512 / 256 = 2.
	for i := 0; i < 512; i++ {
		c.Texel(0, i%16, (i/16)%16, 0)
	}
	f := c.EndFrame()
	if got := f.Utilization(l16); got != 2 {
		t.Errorf("Utilization = %v, want 2", got)
	}
}

func TestLayoutFrameBytes(t *testing.T) {
	l := LayoutFrame{Layout: l16, Blocks: 3, NewBlocks: 1}
	if got := l.MinBytes(); got != 3*1024 {
		t.Errorf("MinBytes = %d, want 3072", got)
	}
	if got := l.NewBytes(); got != 1024 {
		t.Errorf("NewBytes = %d, want 1024", got)
	}
}

func TestFramePanics(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EndFrame outside frame did not panic")
			}
		}()
		c.EndFrame()
	}()
	c.BeginFrame()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested BeginFrame did not panic")
			}
		}()
		c.BeginFrame()
	}()
}

func TestSummarize(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	// Frame 0: 2 blocks; frame 1: 4 blocks (2 new).
	c.BeginFrame()
	c.Pixel()
	c.Pixel()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 16, 0, 0)
	c.EndFrame()
	c.BeginFrame()
	c.Pixel()
	c.Pixel()
	c.Pixel()
	c.Pixel()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 16, 0, 0)
	c.Texel(0, 32, 0, 0)
	c.Texel(0, 48, 0, 0)
	c.EndFrame()

	s := Summarize(c.Frames(), 2)
	if s.Frames != 2 {
		t.Fatalf("Frames = %d", s.Frames)
	}
	// (2+4)/2 pixels per frame over R=2 screen pixels: d = 1.5.
	if s.DepthComplexity != 1.5 {
		t.Errorf("DepthComplexity = %v, want 1.5", s.DepthComplexity)
	}
	ls, ok := s.Layout(l16)
	if !ok {
		t.Fatal("layout summary missing")
	}
	if ls.AvgBlocks != 3 {
		t.Errorf("AvgBlocks = %v, want 3", ls.AvgBlocks)
	}
	if ls.MaxBlocks != 4 {
		t.Errorf("MaxBlocks = %d, want 4", ls.MaxBlocks)
	}
	if ls.AvgNewBlocks != 2 { // frame 0: 2 new; frame 1: 2 new
		t.Errorf("AvgNewBlocks = %v, want 2", ls.AvgNewBlocks)
	}
	if ls.AvgBytes != 3*1024 {
		t.Errorf("AvgBytes = %v", ls.AvgBytes)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 100)
	if s.Frames != 0 || s.DepthComplexity != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestCollectorWrapsNothing(t *testing.T) {
	// The collector contract requires pre-wrapped coordinates; verify a
	// full-extent sweep touches exactly the expected number of blocks.
	set := texture.NewSet()
	set.Register(texture.MustNew("t", 32, 32, texture.RGBA8888, nil))
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	for v := 0; v < 32; v++ {
		for u := 0; u < 32; u++ {
			c.Texel(0, u, v, 0)
		}
	}
	f := c.EndFrame()
	l, _ := f.LayoutStats(l16)
	if l.Blocks != 4 {
		t.Errorf("Blocks = %d, want 4 (32x32 / 16x16)", l.Blocks)
	}
	if got := f.Utilization(l16); got != 1 {
		t.Errorf("Utilization = %v, want 1 (every texel exactly once)", got)
	}
}

func TestLevelHistogram(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 0, 0, 3)
	c.Texel(0, 0, 0, 5)
	f := c.EndFrame()
	if f.LevelRefs[0] != 2 || f.LevelRefs[3] != 1 || f.LevelRefs[5] != 1 {
		t.Errorf("LevelRefs = %v", f.LevelRefs[:6])
	}
	var total int64
	for _, n := range f.LevelRefs {
		total += n
	}
	if total != f.TexelRefs {
		t.Errorf("histogram total %d != TexelRefs %d", total, f.TexelRefs)
	}
	// Next frame starts a fresh histogram.
	c.BeginFrame()
	c.Texel(0, 0, 0, 1)
	f = c.EndFrame()
	if f.LevelRefs[0] != 0 || f.LevelRefs[1] != 1 {
		t.Errorf("second frame LevelRefs = %v", f.LevelRefs[:2])
	}
}

func TestSummaryLevelHistogram(t *testing.T) {
	set := testSet(t)
	c := MustNewCollector(set, l16)
	c.BeginFrame()
	c.Texel(0, 0, 0, 0)
	c.Texel(0, 0, 0, 2)
	c.EndFrame()
	c.BeginFrame()
	c.Texel(0, 0, 0, 2)
	c.EndFrame()
	s := Summarize(c.Frames(), 1)
	if s.LevelRefs[0] != 1 || s.LevelRefs[2] != 2 {
		t.Errorf("summary LevelRefs = %v", s.LevelRefs[:4])
	}
}

// TestCollectorQuadMatchesTexels requires a collector fed bilinear
// footprints through Quad to report, frame by frame, what one fed the
// same footprints as four Texel calls reports. The footprints sit inside
// a block, across a u, a v or a corner edge of every tracked block size,
// across a level's wrap edge, and on the 2x2 and 1x1 levels; each frame
// skips a different third of them, so blocks go and come back.
func TestCollectorQuadMatchesTexels(t *testing.T) {
	set := texture.NewSet()
	set.Register(texture.MustNew("square", 64, 64, texture.RGBA8888, nil))
	set.Register(texture.MustNew("wide", 128, 16, texture.RGB565, nil))
	layouts := []texture.TileLayout{{L2Size: 4, L1Size: 4}, {L2Size: 8, L1Size: 4},
		{L2Size: 16, L1Size: 4}, {L2Size: 32, L1Size: 4}, {L2Size: 8, L1Size: 8}}
	quad := MustNewCollector(set, layouts...)
	texels := MustNewCollector(set, layouts...)
	// From anchor a the footprint's second column (row) is a+1: a is inside
	// every block for a = 1, and the last texel before a 4, 8, 16, 32 or 64
	// texel edge for the rest. Wrapped into a level narrower than a+1, the
	// footprint crosses the level's wrap edge.
	anchors := []int{1, 3, 7, 15, 31, 63}
	for frame := 0; frame < 4; frame++ {
		quad.BeginFrame()
		texels.BeginFrame()
		for _, tex := range set.All() {
			for m, l := range tex.Levels {
				for i, au := range anchors {
					for j, av := range anchors {
						if (i+j+m+frame)%3 == 0 {
							continue
						}
						u0, v0 := texture.WrapTexel(au, l.Width), texture.WrapTexel(av, l.Height)
						u1, v1 := texture.WrapTexel(u0+1, l.Width), texture.WrapTexel(v0+1, l.Height)
						quad.Quad(tex.ID, u0, v0, u1, v1, m)
						texels.Texel(tex.ID, u0, v0, m)
						texels.Texel(tex.ID, u1, v0, m)
						texels.Texel(tex.ID, u0, v1, m)
						texels.Texel(tex.ID, u1, v1, m)
					}
				}
			}
		}
		quad.AddPixels(int64(frame))
		texels.AddPixels(int64(frame))
		got, want := quad.EndFrame(), texels.EndFrame()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d:\nQuad   %+v\nTexels %+v", frame, got, want)
		}
	}
	if !reflect.DeepEqual(quad.Frames(), texels.Frames()) {
		t.Fatal("Frames differ")
	}
}
