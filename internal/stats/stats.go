// Package stats implements the tracing library of the study (§3.2, §4):
// it tracks texture block references per frame at several tile
// granularities and derives the paper's working-set measures — blocks
// touched per frame (total and new relative to the previous frame), the
// minimum local memory of the push and L2-caching architectures, and the
// minimum L1 download bandwidth of the pull architecture.
package stats

import (
	"fmt"

	"texcache/internal/texture"
)

// LayoutFrame reports block usage for one tile granularity in one frame.
type LayoutFrame struct {
	Layout texture.TileLayout
	// Blocks is the number of unique blocks referenced this frame.
	Blocks int64
	// NewBlocks is the number of those not referenced the previous frame.
	NewBlocks int64
}

// MinBytes returns the minimum cache memory to hold the frame's blocks at
// 32-bit texels (the L2-caching architecture's requirement in Figure 4 when
// Layout is an L2 tile size; the L1 download quantum when it is an L1 tile).
func (l LayoutFrame) MinBytes() int64 {
	return l.Blocks * int64(l.Layout.L2BlockBytes())
}

// NewBytes returns the bytes of blocks new this frame.
func (l LayoutFrame) NewBytes() int64 {
	return l.NewBlocks * int64(l.Layout.L2BlockBytes())
}

// Frame aggregates one frame's reference statistics.
type Frame struct {
	// Index is the zero-based frame number.
	Index int
	// Pixels is the number of textured pixels rasterized.
	Pixels int64
	// TexelRefs is the number of texel references presented.
	TexelRefs int64
	// PerLayout holds block statistics for each tracked granularity, in
	// the order the layouts were given to NewCollector.
	PerLayout []LayoutFrame
	// TexturesTouched counts distinct textures referenced.
	TexturesTouched int
	// PushBytes is the minimum push-architecture local memory: the sum
	// of full texture sizes (at original depth) for textures used this
	// frame, assuming a perfect whole-texture replacement policy.
	PushBytes int64
	// HostLoadedBytes is the total texture bytes resident in system
	// memory (all architectures).
	HostLoadedBytes int64
	// LevelRefs histograms texel references by MIP level (levels beyond
	// the last bucket accumulate in it). The MIP distribution shows how
	// the accelerator's level selection tracks texture compression.
	LevelRefs [MaxLevels]int64
}

// MaxLevels bounds the MIP histogram: level 15 corresponds to a 32768x32768
// base texture, beyond any texture of the period.
const MaxLevels = 16

// LayoutStats returns the LayoutFrame for the given layout, or false.
func (f *Frame) LayoutStats(layout texture.TileLayout) (LayoutFrame, bool) {
	for _, l := range f.PerLayout {
		if l.Layout == layout {
			return l, true
		}
	}
	return LayoutFrame{}, false
}

// Utilization returns the paper's block utilisation for the layout: the
// average number of times each texel of a touched block is referenced,
// TexelRefs / (Blocks * texels-per-block). Values above 1 indicate texel
// re-use (repeated textures); below 1, internal fragmentation.
func (f *Frame) Utilization(layout texture.TileLayout) float64 {
	l, ok := f.LayoutStats(layout)
	if !ok || l.Blocks == 0 {
		return 0
	}
	texelsPerBlock := int64(layout.L2Size) * int64(layout.L2Size)
	return float64(f.TexelRefs) / float64(l.Blocks*texelsPerBlock)
}

// blockTracker tracks unique/new blocks at one tile granularity using
// last-seen frame stamps over the flattened block index space.
type blockTracker struct {
	layout   texture.TileLayout
	tilings  []*texture.Tiling
	starts   []uint32
	lastSeen []int32
	unique   int64
	fresh    int64
}

func newBlockTracker(set *texture.Set, layout texture.TileLayout) *blockTracker {
	set.MustPrepare(layout)
	t := &blockTracker{
		layout:   layout,
		tilings:  set.Tilings(layout),
		starts:   make([]uint32, set.Len()),
		lastSeen: make([]int32, set.PageTableEntries(layout)),
	}
	for i := range t.starts {
		t.starts[i] = set.Start(layout, texture.ID(i))
	}
	// -2 so that frame 0's blocks count as new (frame-1 == -1 must not
	// match the initial stamp).
	for i := range t.lastSeen {
		t.lastSeen[i] = -2
	}
	return t
}

func (t *blockTracker) texel(tid texture.ID, u, v, m, frame int) {
	a := t.tilings[tid].Addr(u, v, m)
	idx := t.starts[tid] + a.L2
	last := t.lastSeen[idx]
	if last == int32(frame) {
		return
	}
	t.unique++
	if last != int32(frame)-1 {
		t.fresh++
	}
	t.lastSeen[idx] = int32(frame)
}

// Collector receives the texel reference stream and produces per-frame
// statistics. Layouts given as L2 tile sizes (e.g. {16,4}) measure L2
// working sets; layouts with L2Size == L1Size (e.g. {4,4}) measure L1 tile
// traffic, since then each "block" is exactly one L1 tile.
type Collector struct {
	set        *texture.Set
	trackers   []*blockTracker
	texSeen    []int32
	frame      int
	inFrame    bool
	pixels     int64
	texels     int64
	texTouched int
	pushBytes  int64
	levels     [MaxLevels]int64
	frames     []Frame
}

// NewCollector builds a collector tracking the given tile granularities.
func NewCollector(set *texture.Set, layouts ...texture.TileLayout) (*Collector, error) {
	if len(layouts) == 0 {
		return nil, fmt.Errorf("stats: no layouts to track")
	}
	c := &Collector{
		set:      set,
		texSeen:  make([]int32, set.Len()),
		trackers: make([]*blockTracker, 0, len(layouts)),
	}
	for i := range c.texSeen {
		c.texSeen[i] = -1
	}
	for _, l := range layouts {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		c.trackers = append(c.trackers, newBlockTracker(set, l))
	}
	return c, nil
}

// MustNewCollector is NewCollector but panics on error.
func MustNewCollector(set *texture.Set, layouts ...texture.TileLayout) *Collector {
	c, err := NewCollector(set, layouts...)
	if err != nil {
		panic(err)
	}
	return c
}

// BeginFrame starts a new frame.
func (c *Collector) BeginFrame() {
	if c.inFrame {
		panic("stats: BeginFrame inside a frame")
	}
	c.inFrame = true
	c.pixels = 0
	c.texels = 0
	c.texTouched = 0
	c.pushBytes = 0
	c.levels = [MaxLevels]int64{}
	for _, t := range c.trackers {
		t.unique = 0
		t.fresh = 0
	}
}

// Pixel records one textured pixel rasterized (for depth complexity).
func (c *Collector) Pixel() { c.pixels++ }

// AddPixels records n textured pixels at once (e.g. a rasterizer's frame
// total).
func (c *Collector) AddPixels(n int64) { c.pixels += n }

// Texel records one texel reference. u and v must be wrapped into the
// level extent and m must be a valid MIP level of the texture.
//
// texlint:hotpath
func (c *Collector) Texel(tid texture.ID, u, v, m int) {
	c.count(tid, m, 1)
	for _, t := range c.trackers {
		t.texel(tid, u, v, m, c.frame)
	}
}

// Quad records a bilinear footprint: the texels (u0,v0), (u1,v0), (u0,v1)
// and (u1,v1) of level m, wrapped as for Texel. Its frame statistics are
// those of the four Texel calls. A tracker books a block once per frame,
// so when the four texels share one of its blocks it is given one.
//
// texlint:hotpath
func (c *Collector) Quad(tid texture.ID, u0, v0, u1, v1, m int) {
	c.count(tid, m, 4)
	// Non-negative coordinates share every bit from log2(L2Size) up, and
	// so one block column (row), exactly when their XOR is below L2Size.
	span := (u0 ^ u1) | (v0 ^ v1)
	for _, t := range c.trackers {
		t.texel(tid, u0, v0, m, c.frame)
		if span >= t.layout.L2Size {
			t.texel(tid, u1, v0, m, c.frame)
			t.texel(tid, u0, v1, m, c.frame)
			t.texel(tid, u1, v1, m, c.frame)
		}
	}
}

// count books n references to level m of texture tid: the texel and
// level counts, and the texture's first touch this frame.
//
// texlint:hotpath
func (c *Collector) count(tid texture.ID, m int, n int64) {
	c.texels += n
	if lvl := min(m, MaxLevels-1); lvl >= 0 {
		c.levels[lvl] += n
	}
	if c.texSeen[tid] != int32(c.frame) {
		c.texSeen[tid] = int32(c.frame)
		c.texTouched++
		c.pushBytes += c.set.ByID(tid).HostBytes()
	}
}

// EndFrame closes the current frame and returns its statistics.
func (c *Collector) EndFrame() Frame {
	if !c.inFrame {
		panic("stats: EndFrame outside a frame")
	}
	c.inFrame = false
	f := Frame{
		Index:           c.frame,
		Pixels:          c.pixels,
		TexelRefs:       c.texels,
		TexturesTouched: c.texTouched,
		PushBytes:       c.pushBytes,
		HostLoadedBytes: c.set.HostBytes(),
		LevelRefs:       c.levels,
		PerLayout:       make([]LayoutFrame, 0, len(c.trackers)),
	}
	for _, t := range c.trackers {
		f.PerLayout = append(f.PerLayout, LayoutFrame{
			Layout:    t.layout,
			Blocks:    t.unique,
			NewBlocks: t.fresh,
		})
	}
	c.frames = append(c.frames, f)
	c.frame++
	return f
}

// Frames returns the statistics of all completed frames.
func (c *Collector) Frames() []Frame { return c.frames }
