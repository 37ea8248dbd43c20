package core

import (
	"fmt"
	"runtime"
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
	// model's prediction for each spec; nil for an exact sweep.
	Model []SpecModel
}

// layoutXlate caches per-texture address translation for one L2 layout.
type layoutXlate struct {
	tilings []*texture.Tiling
	starts  []uint32
}

// l1Group is one distinct L1 geometry of a sweep: a single L1 cache that
// the hierarchies of every spec with that size and associativity share.
type l1Group struct {
	l1 *cache.L1Cache
	// misses presents its misses to the L2s and TLBs behind it; nil when
	// no member needs them (SeesMisses).
	misses *cache.MissLists
	backed bool // some member has an L2
}

// l1Chain holds the groups of one associativity, smallest first, whose
// L1s one cache.L1Chain looks up.
type l1Chain struct {
	l1     *cache.L1Chain
	groups []l1Group
	// oneSet is set when the smallest cache is fully associative: the
	// chain looks every record up, since its MRU rule batches only the
	// repeats of the last line.
	oneSet bool
	// refine is the chain's own MRU filter when its smallest cache has
	// more sets than the render stage's filter; nil otherwise.
	refine *mruFilter
	// lookups counts the records looked up since the last frame's
	// marker. Every other reference of the frame is a hit in every cache
	// of the chain.
	lookups int64
}

// The ring between the two stages: ringBlocks blocks of blockRecords
// records each (32 x 2048 x 16 B = 1 MB), allocated once per run. A
// block amortizes the two channel operations of its hand-off over 2048
// references that reach a chain; the spare blocks let the render stage
// run up to 31 blocks ahead of the cache stage, so that a burst of misses
// does not stall it (DESIGN §7 gives the measured waits).
const (
	blockRecords = 2048
	ringBlocks   = 32
)

// record is one reference the render stage hands the cache stage: one
// that some chain must look up. Its line key is its L1 tag, and names the
// texel the L2 layout translation of a miss needs. hit is set when the
// render stage's MRU filter batched the reference, which it records then
// only for the fully associative chains.
type record struct {
	key uint64
	set uint32
	hit bool
}

// The bounds of a texture set lineKey names exactly: tid < 2^16 and u/4,
// v/4 < 2^20. A texture at most 2^22 texels on a side has at most 23
// levels, so m < 2^8 follows.
const (
	maxTextures    = 1 << 16
	maxTextureEdge = 1 << 22
)

// lineKey names the L1 line of texel <u, v> of level m of texture tid as
// <tid, m, u/4, v/4>. Every L1 tile is 4x4, so it names one line in every
// L1, and the exact engine uses it as the L1 tag. buildFanout rejects a
// texture set it cannot name exactly. It is never all ones, the L1's
// invalid tag and an empty MRU filter slot, which would need m = 255.
//
// texlint:hotpath
func lineKey(tid texture.ID, u, v, m int) uint64 {
	return uint64(tid)<<48 | uint64(m)<<40 | uint64(u>>2)<<20 | uint64(v>>2)
}

// lineTexel inverts lineKey: the texture, level and first texel of the
// line key names. Every L2 tile and sub-block is a multiple of 4 texels,
// so that texel has the L2 address of every texel of the line.
//
// texlint:hotpath
func lineTexel(key uint64) (tid texture.ID, u, v, m int) {
	return texture.ID(key >> 48), int(key>>20&0xFFFFF) << 2, int(key&0xFFFFF) << 2, int(key >> 40 & 0xFF)
}

// lineSet is the L1 set hash of the line holding texel <u, v>.
//
// texlint:hotpath
func lineSet(tid texture.ID, u, v, m int) uint32 {
	return cache.SetHash(int32(u>>2), int32(v>>2), uint8(m), uint32(tid))
}

// frameEnd is the marker that closes a frame's records: what the render
// stage measured of the frame.
type frameEnd struct {
	pixels int64
	pst    scene.FrameStats
	// refs counts the frame's references: each one is a repeat of the
	// last line, a hit of the render filter or a record.
	refs int64
	// stats is the collector's frame, when one rides the render stage.
	stats stats.Frame
}

// block is one slot of the ring: n records and, when last is set, the
// marker of the frame they close.
type block struct {
	recs [blockRecords]record
	n    int
	last bool
	end  frameEnd
}

// mruFilter holds in mru[s] the key of the line referenced last in set s
// of a cache whose set mask is mask. A reference to that line is a hit,
// already the most recent of its set, so it need not be looked up. It
// depends on the reference stream alone, not on cache state.
type mruFilter struct {
	mru  []uint64
	mask uint32
}

// newMRUFilter builds an empty filter of sets sets.
func newMRUFilter(sets int) mruFilter {
	f := mruFilter{mru: make([]uint64, sets), mask: uint32(sets - 1)}
	for i := range f.mru {
		f.mru[i] = ^uint64(0)
	}
	return f
}

// recent reports whether key names the line referenced last in its set,
// and otherwise records key as the set's most recent line.
//
// texlint:hotpath
func (f *mruFilter) recent(set uint32, key uint64) bool {
	mru := &f.mru[set&f.mask]
	if *mru == key {
		return true
	}
	*mru = key
	return false
}

// streamFilter is the render stage of the exact engine: the rasterizer's
// sink, run on its own goroutine. It does everything that depends on the
// reference stream alone. It counts the references, passes over a repeat
// of the last line, computes the set hash, applies the MRU filter, and
// writes a record only for a reference some chain must look up. The
// working-set collector rides it. Lines are keyed by lineKey.
//
// The one filter has the fewest sets of any chain whose smallest cache
// has more than one set (DESIGN §7, "One filter for every chain"). Those
// chains' sets refine its sets, so a line that is the most recent of its
// filter set is the most recent of its set in each of their smallest
// caches, and a filter hit is a hit in each of them. A chain with more
// sets than the filter refines the records with its own filter in the
// cache stage.
type streamFilter struct {
	filter mruFilter
	// all is set when some chain is fully associative: then every line
	// that is not a repeat is recorded, a filter hit with its hit bit.
	all     bool
	collect *stats.Collector
	// lastKey is the line referenced last, and refs counts the references
	// since the last frame's marker.
	lastKey uint64
	refs    int64
	// blk is the block being filled. full and free are the ring's two
	// directions, and done closes when the caller leaves RunComparison.
	blk        *block
	full, free chan *block
	done       <-chan struct{}
}

// newStreamFilter builds the render stage for fan.
func newStreamFilter(fan *fanout) *streamFilter {
	return &streamFilter{
		filter:  newMRUFilter(fan.filterSets),
		all:     fan.oneSets,
		lastKey: ^uint64(0),
		blk:     &block{},
	}
}

// Texel presents one reference to the chains and the optional collector.
//
// texlint:hotpath
func (r *streamFilter) Texel(tid texture.ID, u, v, m int) {
	r.refs++
	if key := lineKey(tid, u, v, m); key != r.lastKey {
		r.lastKey = key
		r.present(key, lineSet(tid, u, v, m))
	}
	if r.collect != nil {
		r.collect.Texel(tid, u, v, m)
	}
}

// Quad implements raster.QuadSink: it presents a bilinear footprint, its
// texels in Texel order, to the chains, and whole to the collector.
//
// The chains see what four Texel calls would show them, with each
// distinct line hashed once. In Texel order the texels' lines read A A A
// A inside one line, A A C C across a v edge, A B A B across a u edge and
// A B C D across a corner. Only A can repeat the line before the
// footprint, and no later line repeats the one before it, so the second
// A and B of A B A B go to the MRU filter with the sets already
// computed.
//
// texlint:hotpath
func (r *streamFilter) Quad(tid texture.ID, u0, v0, u1, v1, m int) {
	r.refs += 4
	ka := lineKey(tid, u0, v0, m)
	if u0>>2 == u1>>2 {
		if ka != r.lastKey {
			r.present(ka, lineSet(tid, u0, v0, m))
		}
		if v0>>2 == v1>>2 { // A A A A
			r.lastKey = ka
		} else { // A A C C
			kc := lineKey(tid, u0, v1, m)
			r.present(kc, lineSet(tid, u0, v1, m))
			r.lastKey = kc
		}
	} else {
		sa := lineSet(tid, u0, v0, m)
		if ka != r.lastKey {
			r.present(ka, sa)
		}
		kb, sb := lineKey(tid, u1, v0, m), lineSet(tid, u1, v0, m)
		r.present(kb, sb)
		if v0>>2 == v1>>2 { // A B A B
			r.present(ka, sa)
			r.present(kb, sb)
			r.lastKey = kb
		} else { // A B C D
			r.present(lineKey(tid, u0, v1, m), lineSet(tid, u0, v1, m))
			kd := lineKey(tid, u1, v1, m)
			r.present(kd, lineSet(tid, u1, v1, m))
			r.lastKey = kd
		}
	}
	if r.collect != nil {
		r.collect.Quad(tid, u0, v0, u1, v1, m)
	}
}

// present presents a reference to a line other than the last one to the
// MRU filter, and records it unless the filter hit and no chain is fully
// associative. It inlines into Texel and Quad; record does not.
//
// texlint:hotpath
func (r *streamFilter) present(key uint64, set uint32) {
	if r.filter.mru[set&r.filter.mask] != key || r.all {
		r.record(key, set)
	}
}

// record writes the record of a line present did not settle, marked hit
// when it is the most recent of its filter set, which it becomes
// otherwise. It hands the block over when the block is full.
//
// texlint:hotpath
func (r *streamFilter) record(key uint64, set uint32) {
	hit := r.filter.recent(set, key)
	b := r.blk
	b.recs[b.n] = record{key: key, set: set, hit: hit}
	b.n++
	if b.n == blockRecords {
		r.hand()
	}
}

// endFrame closes the frame in the current block: it moves the count of
// references since the last marker into the block's.
func (r *streamFilter) endFrame() {
	b := r.blk
	b.end.refs, r.refs = r.refs, 0
	b.last = true
}

// hand gives the current block to the cache stage and takes a free one.
// If the caller has left RunComparison meanwhile, it ends the goroutine
// instead, from inside the rasterizer.
func (r *streamFilter) hand() {
	r.full <- r.blk // never blocks: full has room for every block
	select {
	case r.blk = <-r.free:
	case <-r.done:
		runtime.Goexit()
	}
	r.blk.n, r.blk.last = 0, false
}

// start runs the render stage on a goroutine of its own, over a ring of
// ringBlocks blocks whose two channels it returns, until it has handed
// over every frame or done closes. Both channels hold every block of the
// ring, so only a receive blocks: the cache stage waiting for records, or
// the render stage for a free block, which it also leaves when done
// closes. The render stage closes full when it returns.
func (r *streamFilter) start(w *workload.Workload, render Config, rast *raster.Rasterizer,
	done <-chan struct{}) (full <-chan *block, free chan<- *block) {
	r.full = make(chan *block, ringBlocks)
	r.free = make(chan *block, ringBlocks)
	r.done = done
	for i := 1; i < ringBlocks; i++ {
		r.free <- &block{}
	}
	go r.run(w, render, rast)
	return r.full, r.free
}

// run renders every frame, handing over each frame's records and its
// marker, and closes full when it returns.
func (r *streamFilter) run(w *workload.Workload, render Config, rast *raster.Rasterizer) {
	defer close(r.full)
	pipeline := scene.NewPipeline(rast)
	aspect := float64(render.Width) / float64(render.Height)
	for f := 0; f < render.Frames; f++ {
		if r.collect != nil {
			r.collect.BeginFrame()
		}
		pst := pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
		end := &r.blk.end
		end.pixels, end.pst = rast.Pixels(), pst
		if r.collect != nil {
			r.collect.AddPixels(rast.Pixels())
			end.stats = r.collect.EndFrame()
		}
		r.endFrame()
		r.hand()
	}
}

// fanout is the cache stage of the exact engine, run on the calling
// goroutine: the hierarchies of every spec, and everything that reads or
// writes their state. It looks each distinct L1 geometry up at most once
// per record, chaining the geometries of one associativity so that a
// lookup stops at the first (smallest) L1 that hits, translates the L2
// layouts only when an L2-backed group misses, and accesses each
// distinct L2 of a group once per miss.
type fanout struct {
	layouts []layoutXlate
	// at holds the page of the miss being presented under each layout.
	at []cache.Page
	// hiers holds each spec's hierarchy, in spec order.
	hiers  []*cache.Hierarchy
	chains []l1Chain
	// filterSets sizes the render stage's MRU filter, and oneSets is set
	// when some chain's smallest cache has one set.
	filterSets int
	oneSets    bool
}

// take runs a block's records through the hierarchies and settles the
// frame the block closes, if it closes one.
func (s *fanout) take(b *block) {
	for i := range b.recs[:b.n] {
		s.access(&b.recs[i])
	}
	if b.last {
		s.settle(&b.end)
	}
}

// access looks a record up in each chain that cannot settle it: a chain
// with more than one set skips a render filter hit, and a chain that
// refines the filter a hit on its own. A group that misses presents the
// miss through its miss lists. The L2 layouts are translated for the
// first L2-backed group that misses.
//
// texlint:hotpath
func (s *fanout) access(rec *record) {
	l1 := cache.L1Ref{Tag: rec.key, Set: rec.set}
	translated := false
	for ci := range s.chains {
		ch := &s.chains[ci]
		if rec.hit && !ch.oneSet || ch.refine != nil && ch.refine.recent(rec.set, rec.key) {
			continue
		}
		ch.lookups++
		missed := ch.groups[:ch.l1.Lookup(l1)]
		for gi := range missed {
			g := &missed[gi]
			if g.misses == nil {
				continue
			}
			if g.backed && !translated {
				tid, u, v, m := lineTexel(rec.key)
				for i := range s.layouts {
					lx := &s.layouts[i]
					b := lx.tilings[tid].Addr(u, v, m)
					s.at[i] = cache.Page{PT: lx.starts[tid] + b.L2, Sub: uint8(b.L1)}
				}
				translated = true
			}
			g.misses.Miss(l1, s.at)
		}
	}
}

// settle books what the counters owe before a frame's counter read: each
// chain's hits without a lookup, every reference of the frame it did not
// look up, the hits its lookups skipped, and the TLB hits each group's
// miss lists owe.
//
// texlint:hotpath
func (s *fanout) settle(end *frameEnd) {
	for c := range s.chains {
		ch := &s.chains[c]
		ch.l1.RecordHits(end.refs - ch.lookups)
		ch.lookups = 0
		ch.l1.Book()
		for gi := range ch.groups {
			if m := ch.groups[gi].misses; m != nil {
				m.Settle()
			}
		}
	}
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
// The exact engine (runExact) runs in two stages joined by a ring of
// record blocks. A goroutine it starts renders each frame and filters the
// stream: it books repeats and hits on a set's most recent line as
// counts, and hands over only the references some L1 must look up. The
// calling goroutine simulates the caches, and records the results and
// the trace, so they are those of one goroutine doing both. That
// goroutine has exited when RunComparison returns or panics.
// render.FastSweep selects the analytic engine instead (fast.go), which
// never enters this one.
func RunComparison(w *workload.Workload, render Config, specs []CacheSpec) (*Comparison, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no cache specs")
	}
	if render.Frames <= 0 {
		render.Frames = w.Frames
	}
	if err := render.validateRender(); err != nil {
		return nil, err
	}
	if render.FastSweep {
		return runComparisonFast(w, render, specs)
	}
	return runExact(w, render, specs)
}

// buildFanout builds the exact engine's cache stage: one hierarchy per
// spec (fan.hiers, parallel to specs), with one L1 per distinct L1
// geometry shared by its specs' hierarchies, the geometries of each
// associativity chained smallest first, one L2 per distinct L2
// configuration within a geometry, and one translator per distinct L2
// layout, however many specs use it. It sizes the render stage's MRU
// filter and gives each chain that refines it a filter of its own.
func buildFanout(set *texture.Set, specs []CacheSpec) (*fanout, error) {
	// The line key is the L1 tag, so it must name every line exactly.
	if set.Len() > maxTextures {
		return nil, fmt.Errorf("core: %d textures, at most %d", set.Len(), maxTextures)
	}
	for _, t := range set.All() {
		if t.Width() > maxTextureEdge || t.Height() > maxTextureEdge {
			return nil, fmt.Errorf("core: texture %q is %dx%d texels, at most %d on a side",
				t.Name, t.Width(), t.Height(), maxTextureEdge)
		}
	}
	fan := &fanout{hiers: make([]*cache.Hierarchy, 0, len(specs))}
	// Every spec contributes at most one layout and group, so len(specs)
	// bounds each deduplicated table.
	groups := make([]l1Group, 0, len(specs))
	layoutIndex := map[texture.TileLayout]int{}
	groupIndex := map[[2]int]int{} // keyed by L1 bytes and ways
	type l2Key struct {
		group int
		cfg   cache.L2Config
	}
	l2s := map[l2Key]*cache.L2Cache{}

	for _, spec := range specs {
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
		hier := &cache.Hierarchy{L1: g.l1}
		layout := -1
		if spec.L2 != nil {
			g.backed = true
			l2cfg := *spec.L2
			l2cfg.Layout.L1Size = 4
			idx, ok := layoutIndex[l2cfg.Layout]
			if !ok {
				if err := set.Prepare(l2cfg.Layout); err != nil {
					return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
				}
				starts := make([]uint32, set.Len())
				for i := range starts {
					starts[i] = set.Start(l2cfg.Layout, texture.ID(i))
				}
				idx = len(fan.layouts)
				fan.layouts = append(fan.layouts, layoutXlate{
					tilings: set.Tilings(l2cfg.Layout),
					starts:  starts,
				})
				layoutIndex[l2cfg.Layout] = idx
			}
			layout = idx
			key := l2Key{gi, l2cfg}
			if hier.L2 = l2s[key]; hier.L2 == nil {
				l2, err := cache.NewL2(l2cfg, set.PageTableEntries(l2cfg.Layout))
				if err != nil {
					return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
				}
				hier.L2, l2s[key] = l2, l2
			}
			if spec.TLBEntries > 0 {
				hier.TLB = cache.NewTLB(spec.TLBEntries)
			}
		}
		if hier.SeesMisses() {
			if g.misses == nil {
				g.misses = &cache.MissLists{}
			}
			g.misses.Add(hier, layout)
		}
		fan.hiers = append(fan.hiers, hier)
	}
	fan.at = make([]cache.Page, len(fan.layouts))

	// Chain the groups of each associativity, in order of first
	// appearance, smallest L1 first.
	fan.chains = make([]l1Chain, 0, len(groups))
	chainIndex := map[int]int{} // keyed by ways
	for _, g := range groups {
		ci, ok := chainIndex[g.l1.Ways()]
		if !ok {
			ci = len(fan.chains)
			fan.chains = append(fan.chains, l1Chain{groups: make([]l1Group, 0, len(groups))})
			chainIndex[g.l1.Ways()] = ci
		}
		fan.chains[ci].groups = append(fan.chains[ci].groups, g)
	}
	for ci := range fan.chains {
		ch := &fan.chains[ci]
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
	}

	// The render stage's filter has the fewest sets of any chain whose
	// smallest cache has more than one; a fully associative chain
	// takes no part in it.
	for _, ch := range fan.chains {
		if n := ch.groups[0].l1.Sets(); n == 1 {
			fan.oneSets = true
		} else if fan.filterSets == 0 || n < fan.filterSets {
			fan.filterSets = n
		}
	}
	if fan.filterSets == 0 {
		fan.filterSets = 1
	}
	for ci := range fan.chains {
		ch := &fan.chains[ci]
		switch n := ch.groups[0].l1.Sets(); {
		case n == 1:
			ch.oneSet = true
		case n > fan.filterSets:
			f := newMRUFilter(n)
			ch.refine = &f
		}
	}
	return fan, nil
}

// runExact is the exact sweep engine: the stream is rendered once and
// never stored (PAPER.md §3.3). A goroutine renders each frame and
// filters it (streamFilter), and the calling goroutine simulates the
// caches (fanout) and records every result and trace event.
func runExact(w *workload.Workload, render Config, specs []CacheSpec) (*Comparison, error) {
	set := w.Scene.Textures
	fan, err := buildFanout(set, specs)
	if err != nil {
		return nil, err
	}
	rs := newStreamFilter(fan)

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

	var collect *stats.Collector
	if len(render.StatLayouts) > 0 {
		if collect, err = stats.NewCollector(set, render.StatLayouts...); err != nil {
			return nil, err
		}
	}
	rs.collect = collect

	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	rast.SetSink(rs)

	done := make(chan struct{})
	full, free := rs.start(w, render, rast, done)
	defer func() {
		close(done)
		for range full { // wait for the render stage to leave
		}
	}()

	// textrace: "render" frame spans on the caller's track, and per-spec
	// "replayed/" progress samples for the live monitor.
	tk := render.Trace.Track("render")
	replayed := make([]*telemetry.Counter, len(specs))
	for i, spec := range specs {
		replayed[i] = render.Trace.Counter("replayed/" + spec.Name)
	}

	prev := make([]cache.Counters, len(specs))
	for f := 0; f < render.Frames; f++ {
		fspan := tk.Begin("frame", int64(f))
		b := <-full
		for ; !b.last; b = <-full {
			fan.take(b)
			free <- b
		}
		fan.take(b) // the counter reads below must see the settled frame
		fspan.End()
		end := &b.end
		cmp.FramePixels = append(cmp.FramePixels, end.pixels)
		var sf *stats.Frame
		if collect != nil {
			v := end.stats
			sf = &v
		}
		for i, h := range fan.hiers {
			cur := h.Counters()
			fr := FrameResult{
				Pipeline: end.pst,
				Pixels:   end.pixels,
				Counters: cur.Sub(prev[i]),
			}
			if i == 0 {
				fr.Stats = sf
			}
			prev[i] = cur
			replayed[i].Sample(int64(f) + 1)
			cmp.Results[i].Frames = append(cmp.Results[i].Frames, fr)
		}
		free <- b
	}
	for i, h := range fan.hiers {
		cmp.Results[i].Totals = h.Counters()
	}
	if collect != nil {
		// The last frame's marker orders every collector write before
		// this read.
		sum := stats.Summarize(collect.Frames(),
			int64(render.Width)*int64(render.Height))
		cmp.Results[0].Summary = &sum
	}
	return cmp, nil
}
