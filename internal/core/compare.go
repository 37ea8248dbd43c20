package core

import (
	"fmt"
	"sort"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/stats"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// CacheSpec names one cache configuration in a comparison run.
type CacheSpec struct {
	Name    string
	L1Bytes int
	// L1Ways is the L1 associativity; 0 means the paper's 2-way.
	L1Ways int
	// L2 is nil for the pull architecture.
	L2         *cache.L2Config
	TLBEntries int
}

// Comparison holds the results of simulating several cache configurations
// against one rendered reference stream.
type Comparison struct {
	Workload string
	Render   Config
	// Specs holds the spec names, parallel to Results; metric records
	// carry these as their spec label.
	Specs []string
	// Results is parallel to the specs passed to RunComparison; the
	// Config field of each Results reflects its spec.
	Results []*Results
	// Pixels per frame (shared across specs — same stream).
	FramePixels []int64
	// ReuseProfile is the -fast engine's sector-aware locality profile of
	// the rendered stream, the input of the analytic model; nil for an
	// exact sweep.
	ReuseProfile *telemetry.SectorProfile
	// Model is the -fast engine's per-spec report, parallel to Specs: the
	// prediction for every model-reachable spec and the refusal reason
	// for the rest; nil for an exact sweep.
	Model []SpecModel
}

// layoutXlate caches per-texture address translation for one L2 layout.
type layoutXlate struct {
	tilings []*texture.Tiling
	starts  []uint32
	// per-texel scratch, refreshed by multiSink.lookup on an L2-backed miss.
	pt  uint32
	sub uint8
}

// specState pairs a hierarchy with its layout translator index and the
// L2 it may share.
type specState struct {
	hier      *cache.Hierarchy
	layoutIdx int // -1 when no L2
	// owner is the index of the spec whose hierarchy accesses the L2
	// this one shares, or -1 when this one accesses its own L2.
	owner int
	// result is this spec's last L2 result, which its sharers book.
	result cache.L2Result
}

// l1Group is one distinct L1 geometry of a sweep: a single L1 cache that
// the hierarchies of every spec with that size and associativity share.
type l1Group struct {
	l1      *cache.L1Cache
	members []int // indices into multiSink.specs
	backed  bool  // some member has an L2
}

// l1Chain holds the groups of one associativity, smallest first, whose
// L1s one cache.L1Chain looks up, and the chain's MRU filter: mru[s] is
// the key of the line referenced last in set s of the smallest cache,
// whose set mask is mask. A reference to that line is a hit, already
// the most recent of its set, in every cache of the chain, so it is
// counted in batched instead of looked up.
type l1Chain struct {
	l1      *cache.L1Chain
	groups  []l1Group
	mru     []uint64
	mask    uint32
	batched int64
}

// recent reports whether key names the line referenced last in its set
// of the chain's smallest cache, counting that hit for settle, and
// otherwise records key as the set's most recent line.
//
// texlint:hotpath
func (ch *l1Chain) recent(set uint32, key uint64) bool {
	mru := &ch.mru[set&ch.mask]
	if *mru == key {
		ch.batched++
		return true
	}
	*mru = key
	return false
}

// multiSink fans one texel reference stream out to several hierarchies.
// It looks each distinct L1 geometry up at most once per reference,
// chaining the geometries of one associativity so that a lookup stops at
// the first (smallest) L1 that hits, translates the L2 layouts only when
// an L2-backed group misses, and accesses each distinct L2 of a group
// once per miss. It books as batched hits, before any translation, a
// repeat of the last line, and in each chain a reference to the line its
// set referenced last (l1Chain.recent). Lines are keyed as
// <tid, mip, u/4, v/4>; every L1 tile is 4x4, so a key names one L1 line.
type multiSink struct {
	canon   []*texture.Tiling
	layouts []*layoutXlate
	specs   []specState
	chains  []l1Chain
	collect *stats.Collector
	reuse   *reuseProbe
	// lastKey is the line referenced last; batched counts the repeats of
	// it settle has yet to book in every chain.
	lastKey uint64
	batched int64
}

// Texel presents one reference to every hierarchy and optional collector.
//
// texlint:hotpath
func (s *multiSink) Texel(tid texture.ID, u, v, m int) {
	s.ref(tid, u, v, m)
	if s.collect != nil {
		s.collect.Texel(tid, u, v, m)
	}
	if s.reuse != nil {
		s.reuse.Texel(tid, u, v, m)
	}
}

// Quad implements raster.QuadSink: it presents a bilinear footprint, its
// texels in Texel order. A footprint inside one L1 line is one reference
// and three repeats of it, unless a collector or reuse probe rides the
// sink and must see every texel; any other footprint goes through Texel.
//
// texlint:hotpath
func (s *multiSink) Quad(tid texture.ID, u0, v0, u1, v1, m int) {
	if s.collect == nil && s.reuse == nil && u0>>2 == u1>>2 && v0>>2 == v1>>2 {
		s.ref(tid, u0, v0, m)
		s.batched += 3
		return
	}
	s.Texel(tid, u0, v0, m)
	s.Texel(tid, u1, v0, m)
	s.Texel(tid, u0, v1, m)
	s.Texel(tid, u1, v1, m)
}

// ref presents one reference to the hierarchies, counting a repeat of
// the last line without computing its set.
//
// texlint:hotpath
func (s *multiSink) ref(tid texture.ID, u, v, m int) {
	key := uint64(tid)<<48 | uint64(m)<<40 | uint64(u>>2)<<20 | uint64(v>>2)
	if key == s.lastKey {
		s.batched++
		return
	}
	s.lastKey = key
	s.lookup(tid, u, v, m, key)
}

// lookup looks a reference to a line other than the last one up in each
// chain whose MRU filter cannot settle it, presenting a miss to every
// member of each group that missed. The canonical address is translated
// for the first such chain, the L2 layouts for the first L2-backed group
// that misses. Members sharing an L2 book its first member's result.
//
// texlint:hotpath
func (s *multiSink) lookup(tid texture.ID, u, v, m int, key uint64) {
	l1 := cache.L1Ref{Set: cache.SetHash(int32(u>>2), int32(v>>2), uint8(m), uint32(tid))}
	tagged, translated := false, false
	for ci := range s.chains {
		ch := &s.chains[ci]
		if ch.recent(l1.Set, key) {
			continue
		}
		if !tagged {
			a := s.canon[tid].Addr(u, v, m)
			l1.Tag = cache.PackTag(uint32(tid), a.L2, a.L1)
			tagged = true
		}
		missed := ch.groups[:ch.l1.Lookup(l1)]
		for gi := range missed {
			g := &missed[gi]
			if g.backed && !translated {
				for _, lx := range s.layouts {
					b := lx.tilings[tid].Addr(u, v, m)
					lx.pt, lx.sub = lx.starts[tid]+b.L2, uint8(b.L1)
				}
				translated = true
			}
			for _, i := range g.members {
				sp := &s.specs[i]
				ref := cache.Ref{L1: l1}
				if sp.layoutIdx >= 0 {
					lx := s.layouts[sp.layoutIdx]
					ref.PTIndex, ref.Sub = lx.pt, lx.sub
				}
				if sp.owner < 0 {
					sp.result = sp.hier.Miss(ref)
				} else {
					sp.hier.MissShared(ref, s.specs[sp.owner].result)
				}
			}
		}
	}
}

// settle books what the L1 counters owe before each frame's counter
// read: the batched hits, and the hits each chain's lookups skipped.
//
// texlint:hotpath
func (s *multiSink) settle() {
	for i := range s.chains {
		ch := &s.chains[i]
		ch.l1.RecordHits(s.batched + ch.batched)
		ch.l1.Book()
		ch.batched = 0
	}
	s.batched = 0
}

// specConfig merges one CacheSpec into the render configuration, yielding
// the Config recorded in that spec's Results.
func specConfig(render Config, spec CacheSpec) Config {
	cfg := render
	cfg.L1Bytes = spec.L1Bytes
	cfg.L1Ways = spec.L1Ways
	cfg.L2 = spec.L2
	cfg.TLBEntries = spec.TLBEntries
	return cfg
}

// RunComparison renders the workload once under render (resolution, frame
// count, filter, z-order) and simulates every spec against the identical
// texel reference stream. render's own cache fields are ignored. When
// render.StatLayouts is non-empty, working-set statistics are gathered once
// and attached to the first spec's results.
//
// The exact engine is one goroutine: every texel is pushed through all
// hierarchies as it is rendered (runComparisonSerial). render.FastSweep
// selects the analytic engine instead (fast.go).
func RunComparison(w *workload.Workload, render Config, specs []CacheSpec) (*Comparison, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no cache specs")
	}
	if render.Frames <= 0 {
		render.Frames = w.Frames
	}
	if render.L1Bytes == 0 {
		render.L1Bytes = 2 * 1024 // irrelevant; satisfies validation
	}
	if err := render.Validate(); err != nil {
		return nil, err
	}
	if render.FastSweep {
		return runComparisonFast(w, render, specs)
	}
	return runComparisonSerial(w, render, specs, nil)
}

// buildMultiSink builds the fan-out sink the exact engine drives: one
// hierarchy per spec (readable through sink.specs, parallel to specs),
// with one L1 per distinct L1 geometry shared by its specs' hierarchies,
// the geometries of each associativity chained smallest first, one L2
// per distinct L2 configuration within a geometry, and one translator
// per distinct L2 layout, however many specs use it.
func buildMultiSink(set *texture.Set, specs []CacheSpec) (*multiSink, error) {
	sink := &multiSink{
		canon:   set.Tilings(texture.CanonicalL1()),
		lastKey: ^uint64(0),
	}
	sink.specs = make([]specState, 0, len(specs))
	// Every spec contributes at most one layout, group and chain, so
	// len(specs) bounds each deduplicated table.
	sink.layouts = make([]*layoutXlate, 0, len(specs))
	groups := make([]l1Group, 0, len(specs))
	layoutIndex := map[texture.TileLayout]int{}
	groupIndex := map[[2]int]int{} // keyed by L1 bytes and ways
	type l2Key struct {
		group int
		cfg   cache.L2Config
	}
	l2Owner := map[l2Key]int{}

	for i, spec := range specs {
		ways := spec.L1Ways
		if ways == 0 {
			ways = cache.L1Ways
		}
		geom := [2]int{spec.L1Bytes, ways}
		gi, ok := groupIndex[geom]
		if !ok {
			l1, err := cache.NewL1Assoc(spec.L1Bytes, ways)
			if err != nil {
				return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
			}
			gi = len(groups)
			groups = append(groups, l1Group{l1: l1})
			groupIndex[geom] = gi
		}
		g := &groups[gi]
		g.members = append(g.members, i)
		hier := &cache.Hierarchy{L1: g.l1}
		st := specState{hier: hier, layoutIdx: -1, owner: -1}
		if spec.L2 != nil {
			g.backed = true
			l2cfg := *spec.L2
			l2cfg.Layout.L1Size = 4
			idx, ok := layoutIndex[l2cfg.Layout]
			if !ok {
				set.MustPrepare(l2cfg.Layout)
				starts := make([]uint32, set.Len())
				for i := range starts {
					starts[i] = set.Start(l2cfg.Layout, texture.ID(i))
				}
				idx = len(sink.layouts)
				sink.layouts = append(sink.layouts, &layoutXlate{
					tilings: set.Tilings(l2cfg.Layout),
					starts:  starts,
				})
				layoutIndex[l2cfg.Layout] = idx
			}
			st.layoutIdx = idx
			key := l2Key{gi, l2cfg}
			if owner, ok := l2Owner[key]; ok {
				st.owner = owner
				hier.L2 = sink.specs[owner].hier.L2
			} else {
				l2, err := cache.NewL2(l2cfg, set.PageTableEntries(l2cfg.Layout))
				if err != nil {
					return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
				}
				hier.L2 = l2
				l2Owner[key] = i
			}
			if spec.TLBEntries > 0 {
				hier.TLB = cache.NewTLB(spec.TLBEntries)
			}
		}
		sink.specs = append(sink.specs, st)
	}

	// Chain the groups of each associativity, in order of first
	// appearance, smallest L1 first.
	sink.chains = make([]l1Chain, 0, len(groups))
	chainIndex := map[int]int{} // keyed by ways
	for _, g := range groups {
		ci, ok := chainIndex[g.l1.Ways()]
		if !ok {
			ci = len(sink.chains)
			sink.chains = append(sink.chains, l1Chain{groups: make([]l1Group, 0, len(groups))})
			chainIndex[g.l1.Ways()] = ci
		}
		sink.chains[ci].groups = append(sink.chains[ci].groups, g)
	}
	for ci := range sink.chains {
		ch := &sink.chains[ci]
		sort.Slice(ch.groups, func(a, b int) bool {
			return ch.groups[a].l1.SizeBytes() < ch.groups[b].l1.SizeBytes()
		})
		l1s := make([]*cache.L1Cache, 0, len(ch.groups))
		for _, g := range ch.groups {
			l1s = append(l1s, g.l1)
		}
		l1, err := cache.NewL1Chain(l1s...)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ch.l1 = l1
		ch.mru = make([]uint64, l1s[0].Sets())
		for i := range ch.mru {
			ch.mru[i] = ^uint64(0)
		}
		ch.mask = uint32(len(ch.mru) - 1)
	}
	return sink, nil
}

// runComparisonSerial is the exact sweep engine: one goroutine renders
// each frame and fans every texel out to all the specs' hierarchies, so
// the stream is rendered once and never stored (PAPER.md §3.3). A
// non-nil probe (the -fast engine injects one carrying TLB filters)
// taps the render stream.
func runComparisonSerial(w *workload.Workload, render Config, specs []CacheSpec, probe *reuseProbe) (*Comparison, error) {
	set := w.Scene.Textures
	set.MustPrepare(texture.CanonicalL1())

	sink, err := buildMultiSink(set, specs)
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{
		Workload:    w.Name,
		Render:      render,
		Specs:       make([]string, 0, len(specs)),
		Results:     make([]*Results, 0, len(specs)),
		FramePixels: make([]int64, 0, render.Frames),
	}
	for _, spec := range specs {
		cmp.Specs = append(cmp.Specs, spec.Name)
		cmp.Results = append(cmp.Results, &Results{
			Workload: w.Name, Config: specConfig(render, spec),
		})
	}

	if len(render.StatLayouts) > 0 {
		collect, err := stats.NewCollector(set, render.StatLayouts...)
		if err != nil {
			return nil, err
		}
		sink.collect = collect
	}
	sink.reuse = probe

	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	rast.SetSink(sink)
	pipeline := scene.NewPipeline(rast)

	// textrace: "render" frame spans on the engine's one track, and
	// per-spec "replayed/" progress samples for the live monitor.
	tk := render.Trace.Track("render")
	replayed := make([]*telemetry.Counter, len(specs))
	for i, spec := range specs {
		replayed[i] = render.Trace.Counter("replayed/" + spec.Name)
	}

	aspect := float64(render.Width) / float64(render.Height)
	prev := make([]cache.Counters, len(specs))
	for f := 0; f < render.Frames; f++ {
		fspan := tk.Begin("frame", int64(f))
		if sink.collect != nil {
			sink.collect.BeginFrame()
		}
		pst := pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
		sink.settle() // the counter reads below must see the batched hits
		fspan.End()
		cmp.FramePixels = append(cmp.FramePixels, rast.Pixels())
		var sf *stats.Frame
		if sink.collect != nil {
			sink.collect.AddPixels(rast.Pixels())
			v := sink.collect.EndFrame()
			sf = &v
		}
		for i := range sink.specs {
			cur := sink.specs[i].hier.Counters()
			fr := FrameResult{
				Pipeline: pst,
				Pixels:   rast.Pixels(),
				Counters: cur.Sub(prev[i]),
			}
			if i == 0 {
				fr.Stats = sf
			}
			prev[i] = cur
			// Streamed frame-major, spec-minor: the canonical metric order
			// EmitComparisonMetrics reproduces for memoized comparisons.
			if render.Metrics != nil {
				render.Metrics.Frame(metricsFrame(w.Name, cmp.Specs[i], f, &fr))
			}
			replayed[i].Sample(int64(f) + 1)
			cmp.Results[i].Frames = append(cmp.Results[i].Frames, fr)
		}
	}
	for i := range sink.specs {
		cmp.Results[i].Totals = sink.specs[i].hier.Counters()
	}
	if sink.collect != nil {
		sum := stats.Summarize(sink.collect.Frames(),
			int64(render.Width)*int64(render.Height))
		cmp.Results[0].Summary = &sum
	}
	return cmp, nil
}
