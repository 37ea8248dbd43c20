// Simulator-side telemetry wiring: mapping per-frame cache counters onto
// the texscope metric stream, and the reuse-distance probe that taps the
// texel reference stream on the hot path. The layering rule is one-way:
// the simulator feeds telemetry, telemetry never feeds the simulator, so
// enabling any of it cannot perturb simulation results.
package core

import (
	"texcache/internal/cache"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
)

// metricsFrame flattens one frame's results into a metric record.
func metricsFrame(workload, spec string, frame int, fr *FrameResult) telemetry.FrameMetrics {
	c := &fr.Counters
	return telemetry.FrameMetrics{
		Workload:      workload,
		Spec:          spec,
		Frame:         frame,
		Pixels:        fr.Pixels,
		L1Accesses:    c.L1.Accesses,
		L1Misses:      c.L1.Misses,
		L2FullHits:    c.L2.FullHits,
		L2PartialHits: c.L2.PartialHits,
		L2FullMisses:  c.L2.FullMisses,
		L2Evictions:   c.L2.Evictions,
		L2SearchSteps: c.L2.SearchSteps,
		L2MaxSearch:   c.L2.MaxSearch,
		TLBLookups:    c.TLB.Lookups,
		TLBHits:       c.TLB.Hits,
		HostBytes:     c.HostBytes,
		L2ReadBytes:   c.L2ReadBytes,
		L2WriteBytes:  c.L2WriteBytes,
	}
}

// EmitMetrics replays a completed run's per-frame counters into e under
// the given spec label. It is how memoized or deferred results (the
// experiment runner caches Results across experiments) reach a metric
// stream after the fact; a nil emitter is a no-op.
func EmitMetrics(e telemetry.Emitter, res *Results, spec string) {
	if e == nil || res == nil {
		return
	}
	for f := range res.Frames {
		e.Frame(metricsFrame(res.Workload, spec, f, &res.Frames[f]))
	}
}

// EmitComparisonMetrics replays a completed comparison into e in the
// canonical stream order: frame-major, spec-minor — the order the exact
// engine streams records in while running, so a memoized comparison
// replays byte-identically to the live stream.
func EmitComparisonMetrics(e telemetry.Emitter, cmp *Comparison) {
	if e == nil || cmp == nil {
		return
	}
	for f := 0; f < len(cmp.FramePixels); f++ {
		for i, res := range cmp.Results {
			if f >= len(res.Frames) {
				continue
			}
			e.Frame(metricsFrame(cmp.Workload, cmp.Specs[i], f, &res.Frames[f]))
		}
	}
}

// reuseLayout is the fixed measurement granularity of the reuse-distance
// probe: the paper's canonical 16x16-texel L2 blocks. The probe measures
// locality of the reference stream itself, independent of whichever cache
// configurations are being swept, so one granularity serves every run.
func reuseLayout() texture.TileLayout {
	return texture.TileLayout{L2Size: 16, L1Size: 4}
}

// probeTLB is one swept spec's TLB carried inside the reuse probe: the
// -fast engine simulates TLBs exactly (they are tiny and sensitive to
// the L1-filtered stream, so the analytic model does not attempt them)
// by giving each TLB spec a real cache.TLB fed through a real L1 filter.
type probeTLB struct {
	// specIdx is the spec's index in the comparison, where the exact
	// stats are patched into the modeled Results.
	specIdx int
	tlb     *cache.TLB
}

// probeFilter is an exact L1 cache shared by every probed TLB spec with
// the same L1 geometry: the TLBs see precisely the miss stream the real
// hierarchy would send them.
type probeFilter struct {
	l1   *cache.L1Cache
	tlbs []probeTLB
}

// reuseProbe taps the texel reference stream, translating each reference
// to its global L2 block address and feeding the sector-aware
// stack-distance collector (plus, in -fast sweeps, the exact TLB
// filters). It rides the rasterizer hot path behind a concrete-pointer
// nil check, so runs without CollectReuse pay one predictable branch.
type reuseProbe struct {
	tilings []*texture.Tiling
	starts  []uint32
	c       *telemetry.SectorReuseCollector
	filters []*probeFilter
	// lastKey and prevKey identify the two most recently probed L1 lines
	// as <tid, mip, u/4, v/4>; lastBlock/prevBlock and lastRef/prevRef
	// cache their translations. Two stream shapes are resolved without
	// touching the collector or filters, before even the address
	// translation:
	//
	//   - a repeat of lastKey is distance 0 in every distribution, a
	//     guaranteed L1-filter hit, and reaches no TLB — repeats counts
	//     them, flushed once at snapshot time (pure counts commute);
	//   - a return to prevKey is a two-line alternation: within one block
	//     (the bilinear ping-pong across a line boundary) every
	//     distribution but the line stack sits still; across two blocks
	//     (the trilinear ping-pong between mip levels) each reference is
	//     distance 1 everywhere and the sector bookkeeping advances by
	//     pure per-side counts. Either way both lines provably stay
	//     filter-resident, because a >=2-way LRU set cannot evict its
	//     most recent line on one distinct fill, so no TLB is reached.
	//     alternations counts the run and altKind its shape;
	//     syncAlternations settles the order-dependent leftovers (stack
	//     top-two order and filter recency, both a parity) before the
	//     next real access.
	lastKey, prevKey     uint64
	lastBlock, prevBlock uint32
	lastSub, prevSub     uint16
	lastRef, prevRef     cache.L1Ref
	altKind              uint8
	repeats              int64
	alternations         int64
}

// Alternation-run shapes: no valid pair yet, both lines in one block, or
// lines in two different blocks.
const (
	altNone = iota
	altSame
	altCross
)

// newReuseProbe sizes a probe for the texture set's page table under the
// canonical layout.
func newReuseProbe(set *texture.Set) *reuseProbe {
	layout := reuseLayout()
	set.MustPrepare(layout)
	starts := make([]uint32, set.Len())
	for i := range starts {
		starts[i] = set.Start(layout, texture.ID(i))
	}
	return &reuseProbe{
		tilings: set.Tilings(layout),
		starts:  starts,
		c: telemetry.NewSectorReuseCollector(
			int(set.PageTableEntries(layout)), layout.SubPerBlock(), layout.L2Size),
		lastKey: ^uint64(0),
		prevKey: ^uint64(0),
	}
}

// Texel records one reference: its L2 block and L1 sub-tile feed the
// sector collector, and on -fast sweeps the same translated address
// drives the exact TLB filters. The probe's measurement layout equals
// the canonical L1 layout, so one translation serves both.
//
// texlint:hotpath
func (p *reuseProbe) Texel(tid texture.ID, u, v, m int) {
	key := uint64(tid)<<48 | uint64(m)<<40 | uint64(u>>2)<<20 | uint64(v>>2)
	if key == p.lastKey {
		p.repeats++
		return
	}
	if key == p.prevKey && p.altKind != altNone {
		p.alternations++
		p.lastKey, p.prevKey = p.prevKey, p.lastKey
		p.lastBlock, p.prevBlock = p.prevBlock, p.lastBlock
		p.lastSub, p.prevSub = p.prevSub, p.lastSub
		p.lastRef, p.prevRef = p.prevRef, p.lastRef
		return
	}
	p.syncAlternations()
	a := p.tilings[tid].Addr(u, v, m)
	block := p.starts[tid] + a.L2
	p.c.Access(block, a.L1)
	ref := cache.L1Ref{
		Tag: cache.PackTag(uint32(tid), a.L2, a.L1),
		Set: cache.SetHash(int32(u>>2), int32(v>>2), uint8(m), uint32(tid)),
	}
	switch {
	case p.lastKey == ^uint64(0):
		p.altKind = altNone
	case block == p.lastBlock:
		p.altKind = altSame
	default:
		p.altKind = altCross
	}
	p.prevKey, p.prevBlock, p.prevSub, p.prevRef = p.lastKey, p.lastBlock, p.lastSub, p.lastRef
	p.lastKey, p.lastBlock, p.lastSub, p.lastRef = key, block, a.L1, ref
	for _, f := range p.filters {
		if f.l1.Access(ref) {
			continue
		}
		for _, t := range f.tlbs {
			t.tlb.Lookup(block)
		}
	}
}

// syncAlternations settles a finished ping-pong run: the batched tallies
// go to the collector (the cross-block form also advances the blocks'
// close counters), and when the run's parity left the other line on
// top, the filters replay one guaranteed-hit access so their LRU recency
// matches the true stream (the collector's register order is fixed
// inside the Record call).
//
// texlint:hotpath
func (p *reuseProbe) syncAlternations() {
	if p.alternations == 0 {
		return
	}
	if p.altKind == altSame {
		p.c.RecordAlternations(p.alternations)
	} else {
		p.c.RecordCrossAlternations(p.alternations,
			p.lastBlock, p.lastSub, p.prevBlock, p.prevSub)
	}
	if p.alternations&1 == 1 {
		for _, f := range p.filters {
			f.l1.Access(p.lastRef)
		}
	}
	p.alternations = 0
}

// flush drains every batched count into the collector so a snapshot
// observes the complete reference stream.
func (p *reuseProbe) flush() {
	p.syncAlternations()
	if p.repeats > 0 {
		p.c.RecordRepeats(p.repeats)
		p.repeats = 0
	}
}

// histogram snapshots the probe's block-distance histogram (the
// pre-existing Comparison.Reuse artifact), nil-safe for runs without one.
func (p *reuseProbe) histogram() *telemetry.ReuseHistogram {
	if p == nil {
		return nil
	}
	p.flush()
	h := p.c.Profile().Blocks
	return &h
}

// profile snapshots the full three-histogram sector profile the analytic
// model consumes, nil-safe for runs without a probe.
func (p *reuseProbe) profile() *telemetry.SectorProfile {
	if p == nil {
		return nil
	}
	p.flush()
	pr := p.c.Profile()
	return &pr
}
