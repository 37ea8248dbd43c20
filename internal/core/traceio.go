package core

import (
	"errors"
	"fmt"
	"io"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/stats"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

// RecordTrace renders the workload once under cfg's resolution, frame
// count and filter mode, writing the texel reference stream to w. Cache
// settings in cfg are ignored — a trace captures references, not cache
// behaviour. The returned count is the number of frames actually written:
// when the underlying writer fails mid-run, rendering stops at the next
// frame boundary, the complete frames already encoded are flushed, and
// the count reports how many of them the partial stream holds.
func RecordTrace(wk *workload.Workload, cfg Config, w io.Writer) (frames int, err error) {
	if cfg.Frames <= 0 {
		cfg.Frames = wk.Frames
	}
	rast, err := raster.New(raster.Config{
		Width: cfg.Width, Height: cfg.Height,
		Mode:           cfg.Mode,
		ZBeforeTexture: cfg.ZBeforeTexture,
	})
	if err != nil {
		return 0, err
	}
	tw := trace.NewWriter(w)
	rast.SetSink(&raster.TraceSink{W: tw})
	pipeline := scene.NewPipeline(rast)
	aspect := float64(cfg.Width) / float64(cfg.Height)
	for f := 0; f < cfg.Frames; f++ {
		tw.BeginFrame()
		pipeline.RenderFrame(wk.Scene, wk.Camera(aspect, f, cfg.Frames))
		tw.EndFrame(rast.Pixels())
		if tw.Err() != nil {
			// The stream is already broken; rendering further frames
			// would only burn time encoding into a failed writer.
			break
		}
		frames++
	}
	if err := tw.Close(); err != nil {
		return frames, fmt.Errorf("core: trace: %w", err)
	}
	return frames, nil
}

// Replay validation errors, latched by the handler on the hot path and
// wrapped with the offending values by ReplayTrace afterwards.
var (
	errReplayTID   = errors.New("texture id out of range")
	errReplayLevel = errors.New("MIP level out of range")
	errReplayCoord = errors.New("texel coordinate outside level extent")
)

// replayHandler adapts the cache hierarchy and collector to trace.Handler.
// A trace is external input, so every reference is bounds-checked against
// the texture registry before it reaches address translation — an
// unvalidated texture id, MIP level or texel coordinate would index the
// tiling tables and the L2 page table out of range. Failures latch into
// err (ReplayErr aborts the replay at the next frame boundary) instead of
// formatting or panicking per texel.
type replayHandler struct {
	sink    *addrSink
	collect *stats.Collector
	hier    *cache.Hierarchy
	res     *Results
	prev    cache.Counters
	err     error
	// The offending reference, for the error message.
	badTID     uint32
	badU, badV int
	badM       int
}

func (h *replayHandler) BeginFrame() {
	if h.collect != nil {
		h.collect.BeginFrame()
	}
}

// Texel validates one replayed reference and feeds it to the address
// sink. It runs once per texel of the trace; the checks are a handful of
// integer compares against the canonical tiling, and failures latch a
// constant error value rather than allocating on the hot path.
//
// texlint:hotpath
func (h *replayHandler) Texel(tid uint32, u, v, m int) {
	if h.err != nil {
		return
	}
	if uint64(tid) >= uint64(len(h.sink.canon)) {
		h.fail(errReplayTID, tid, u, v, m)
		return
	}
	tex := h.sink.canon[tid].Tex
	if m < 0 || m >= len(tex.Levels) {
		h.fail(errReplayLevel, tid, u, v, m)
		return
	}
	if u < 0 || u >= tex.Levels[m].Width || v < 0 || v >= tex.Levels[m].Height {
		h.fail(errReplayCoord, tid, u, v, m)
		return
	}
	h.sink.Texel(texture.ID(tid), u, v, m)
}

// fail records the first invalid reference.
//
// texlint:hotpath
func (h *replayHandler) fail(err error, tid uint32, u, v, m int) {
	h.err = err
	h.badTID, h.badU, h.badV, h.badM = tid, u, v, m
}

// ReplayErr implements trace.FailingHandler: a validation failure aborts
// the decode at the next frame boundary.
func (h *replayHandler) ReplayErr() error { return h.err }

// describe wraps the latched validation error with the offending
// reference, off the hot path.
func (h *replayHandler) describe() error {
	return fmt.Errorf("core: replay: invalid reference <tid %d, u %d, v %d, mip %d>: %w",
		h.badTID, h.badU, h.badV, h.badM, h.err)
}

func (h *replayHandler) EndFrame(pixels int64) {
	fr := FrameResult{Pixels: pixels}
	if h.collect != nil {
		h.collect.AddPixels(pixels)
		sf := h.collect.EndFrame()
		fr.Stats = &sf
	}
	cur := h.hier.Counters()
	fr.Counters = cur.Sub(h.prev)
	h.prev = cur
	h.res.Frames = append(h.res.Frames, fr)
}

// ReplayTrace replays a recorded reference stream through the cache
// hierarchy configured by cfg. set must be the texture registry of the
// workload that recorded the trace (texture IDs must agree); a stream
// that references textures, MIP levels or coordinates outside the
// registry is rejected with a descriptive error, never a panic. A
// positive cfg.Frames bounds the replay to the stream's first cfg.Frames
// frames (zero replays the whole stream). Rendering parameters of cfg
// other than Width/Height (used for the working-set summary's screen
// resolution) are ignored.
func ReplayTrace(r io.Reader, set *texture.Set, cfg Config) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, sink, err := buildHierarchy(set, cfg)
	if err != nil {
		return nil, err
	}
	var collect *stats.Collector
	if len(cfg.StatLayouts) > 0 {
		collect, err = stats.NewCollector(set, cfg.StatLayouts...)
		if err != nil {
			return nil, err
		}
		sink.collect = collect
	}
	res := &Results{Workload: "trace", Config: cfg}
	h := &replayHandler{sink: sink, collect: collect, hier: hier, res: res}
	if _, err := trace.ReplayFrames(r, h, cfg.Frames); err != nil {
		if h.err != nil {
			return nil, h.describe()
		}
		return nil, fmt.Errorf("core: replay: %w", err)
	}
	res.Totals = hier.Counters()
	if collect != nil {
		sum := stats.Summarize(collect.Frames(), int64(cfg.Width)*int64(cfg.Height))
		res.Summary = &sum
	}
	return res, nil
}

// addrSink translates texel references to cache addresses and drives one
// unshared hierarchy, reference by reference: the sink of ReplayTrace,
// and of the per-spec oracle the exact engine is tested against.
type addrSink struct {
	canon   []*texture.Tiling // canonical 16x16/4x4 tilings per texture
	l2til   []*texture.Tiling // tilings under the L2 layout, or nil
	l2start []uint32
	h       *cache.Hierarchy
	collect *stats.Collector // optional
}

// Texel is invoked once per texel reference — hundreds of millions of
// times per run — and must stay free of allocation and formatting.
//
// texlint:hotpath
func (s *addrSink) Texel(tid texture.ID, u, v, m int) {
	a := s.canon[tid].Addr(u, v, m)
	ref := cache.Ref{L1: cache.L1Ref{
		Tag: cache.PackTag(uint32(tid), a.L2, a.L1),
		Set: cache.SetHash(int32(u>>2), int32(v>>2), uint8(m), uint32(tid)),
	}}
	if s.l2til != nil {
		b := s.l2til[tid].Addr(u, v, m)
		ref.PTIndex = s.l2start[tid] + b.L2
		ref.Sub = uint8(b.L1)
	}
	s.h.Access(ref)
	if s.collect != nil {
		s.collect.Texel(tid, u, v, m)
	}
}

// buildHierarchy constructs the cache hierarchy and address sink for the
// texture set under cfg.
func buildHierarchy(set *texture.Set, cfg Config) (*cache.Hierarchy, *addrSink, error) {
	set.MustPrepare(texture.CanonicalL1())

	ways := cfg.L1Ways
	if ways == 0 {
		ways = cache.L1Ways
	}
	l1, err := cache.NewL1Assoc(cfg.L1Bytes, ways)
	if err != nil {
		return nil, nil, err
	}
	hier := &cache.Hierarchy{L1: l1}

	sink := &addrSink{
		canon: set.Tilings(texture.CanonicalL1()),
		h:     hier,
	}
	if cfg.L2 != nil {
		l2cfg := *cfg.L2
		// The L2 sub-block must be the 4x4 L1 tile so that sector bits
		// track exactly what the L1 cache downloads.
		l2cfg.Layout.L1Size = 4
		if err := set.Prepare(l2cfg.Layout); err != nil {
			return nil, nil, err
		}
		l2, err := cache.NewL2(l2cfg, set.PageTableEntries(l2cfg.Layout))
		if err != nil {
			return nil, nil, err
		}
		hier.L2 = l2
		if cfg.TLBEntries > 0 {
			hier.TLB = cache.NewTLB(cfg.TLBEntries)
		}
		tilings := set.Tilings(l2cfg.Layout)
		starts := make([]uint32, set.Len())
		for i := range starts {
			starts[i] = set.Start(l2cfg.Layout, texture.ID(i))
		}
		sink.l2til = tilings
		sink.l2start = starts
	}
	return hier, sink, nil
}
