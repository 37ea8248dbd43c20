package cache

import "slices"

// Ref is one texel reference with every address precomputed: the canonical
// L1 tag and set hash, plus the page-table index and sub-block number under
// the simulated L2 layout. The rasterizer-side translation produces these
// in a small number of shifts, adds and table lookups (§2.2).
type Ref struct {
	L1      L1Ref
	PTIndex uint32
	Sub     uint8
}

// Counters aggregates the hierarchy's activity. Byte counts model the
// traffic of Figure 7: HostBytes crosses AGP/system memory (the pull
// architecture's scarce resource), L2WriteBytes is host->L2 downloads and
// L2ReadBytes is L2->L1 fills, both absorbed by accelerator-local memory.
// The simulator is transaction-accurate, so each byte count is a fixed
// multiple of a transaction count, and Hierarchy.Counters derives them.
type Counters struct {
	L1           L1Stats
	L2           L2Stats
	TLB          TLBStats
	HostBytes    int64
	L2ReadBytes  int64
	L2WriteBytes int64
}

// Sub subtracts an earlier snapshot, yielding activity in between.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		L1: c.L1.Sub(o.L1),
		L2: c.L2.Sub(o.L2),
		TLB: TLBStats{
			Lookups: c.TLB.Lookups - o.TLB.Lookups,
			Hits:    c.TLB.Hits - o.TLB.Hits,
		},
		HostBytes:    c.HostBytes - o.HostBytes,
		L2ReadBytes:  c.L2ReadBytes - o.L2ReadBytes,
		L2WriteBytes: c.L2WriteBytes - o.L2WriteBytes,
	}
}

// Hierarchy composes the texture cache levels. With L2 == nil it models the
// pull architecture (L1 misses download directly from system memory); with
// an L2 it models the paper's proposed architecture. TLB is optional and
// only gathers statistics — it does not change transaction behaviour.
//
// Hierarchies that differ only below the L1 may share one L1 cache, and
// those of them with one L2 configuration one L2: the caller looks each
// reference up in the L1 once and presents every miss to the L2s and TLBs
// behind it through MissLists. A hierarchy whose L1 is shared must never
// be driven through Access, which would look the reference up again.
type Hierarchy struct {
	L1  *L1Cache
	L2  *L2Cache
	TLB *TLB

	// san is the texsan invariant sanitizer; empty unless built with
	// -tags texsan (see sanitize_on.go).
	san sanState
}

// SeesMisses reports whether a hierarchy sharing its L1 must be presented
// the misses in it. Under the pull architecture its counters follow from
// the L1's, so it needs them only for texsan to check.
func (h *Hierarchy) SeesMisses() bool { return h.L2 != nil || sanitizing }

// Access runs one texel reference through the hierarchy, following the
// control flow of Figure 7.
//
// texlint:hotpath
func (h *Hierarchy) Access(ref Ref) {
	hit := h.L1.Access(ref.L1)
	if !hit {
		h.accessMiss(ref)
	}
	if sanitizing {
		h.sanAccess(ref, hit, 0)
	}
}

// accessMiss services an L1 miss: nothing to do under the pull
// architecture, whose host download Counters derives from the L1 misses,
// otherwise the L2 access and the TLB lookup of its page.
//
// texlint:hotpath
func (h *Hierarchy) accessMiss(ref Ref) {
	if h.L2 == nil {
		return
	}
	h.L2.Access(ref.PTIndex, ref.Sub)
	if h.TLB != nil {
		h.TLB.Lookup(ref.PTIndex)
	}
}

// Counters returns a snapshot of all counters, with the bytes of Figure 7
// derived from the transactions that move them. Under the pull
// architecture every L1 miss downloads its line from host memory. With an
// L2, a full hit reads the line from the L2, and a partial hit or full
// miss downloads it from host memory into the L2 and, in parallel, into
// the L1 (step F removes the latency of a second hop); without sector
// mapping the download is the whole L2 block.
func (h *Hierarchy) Counters() Counters {
	c := Counters{L1: h.L1.Stats()}
	if h.TLB != nil {
		c.TLB = h.TLB.Stats()
	}
	if h.L2 == nil {
		c.HostBytes = c.L1.Misses * L1LineBytes
		return c
	}
	c.L2 = h.L2.Stats()
	dl := int64(L1LineBytes)
	if cfg := h.L2.Config(); cfg.NoSectorMapping {
		dl = int64(cfg.Layout.L2BlockBytes())
	}
	c.L2ReadBytes = c.L2.FullHits * L1LineBytes
	c.L2WriteBytes = (c.L2.PartialHits + c.L2.FullMisses) * dl
	c.HostBytes = c.L2WriteBytes
	return c
}

// Page is where a reference lies under one L2 layout: its page-table
// index and its sub-block.
type Page struct {
	PT  uint32
	Sub uint8
}

// MissLists presents the misses of one shared L1 to the hierarchies on
// it (Add): one access per distinct L2 behind them and one lookup per
// TLB, each with the page of the layout it translates by. An L2's state
// depends only on its configuration and its miss stream, which the shared
// L1 makes the same for every sharer, and no TLB feeds back into it, so
// one L2 serves every sharer of one configuration.
//
// The TLBs of one layout see one page stream. A miss to the page they
// looked up last is therefore a hit in each of them (a listed TLB has at
// least one entry), and a hit changes nothing in a round-robin TLB: such
// a miss is only counted, and Settle books the count as hits in each of
// them, as L1Cache.RecordHits books batched L1 hits.
type MissLists struct {
	l2s  []listedL2
	tlbs []listedTLBs
	// members holds every hierarchy on the L1, for the texsan
	// sanitizer only.
	members []listedMember
}

// listedL2 is one L2 behind the shared L1, with its layout's index.
type listedL2 struct {
	l2     *L2Cache
	layout int
}

// listedTLBs is the TLBs of one layout, the page they looked up last,
// and the misses to it that they owe as hits.
type listedTLBs struct {
	layout int
	tlbs   []*TLB
	last   uint32
	owed   int64
}

// listedMember is a hierarchy on the shared L1 and its layout's index,
// or -1 under the pull architecture.
type listedMember struct {
	h      *Hierarchy
	layout int
}

// Add lists h, which shares the L1 and translates by layout (any index
// when h.L2 is nil), before the first miss: its L2 unless another member
// listed it, and its TLB.
func (m *MissLists) Add(h *Hierarchy, layout int) {
	if h.L2 == nil {
		layout = -1
	}
	if sanitizing {
		m.members = append(m.members, listedMember{h, layout})
	}
	if h.L2 == nil {
		return
	}
	if !slices.ContainsFunc(m.l2s, func(l listedL2) bool { return l.l2 == h.L2 }) {
		m.l2s = append(m.l2s, listedL2{h.L2, layout})
	}
	if h.TLB == nil {
		return
	}
	i := slices.IndexFunc(m.tlbs, func(t listedTLBs) bool { return t.layout == layout })
	if i < 0 {
		i = len(m.tlbs)
		m.tlbs = append(m.tlbs, listedTLBs{layout: layout, last: tlbInvalid})
	}
	m.tlbs[i].tlbs = append(m.tlbs[i].tlbs, h.TLB)
}

// Miss presents a miss of the shared L1 to line ref, whose page under
// layout i is at[i].
//
// texlint:hotpath
func (m *MissLists) Miss(ref L1Ref, at []Page) {
	for i := range m.l2s {
		l := &m.l2s[i]
		p := at[l.layout]
		l.l2.Access(p.PT, p.Sub)
	}
	for i := range m.tlbs {
		t := &m.tlbs[i]
		if pt := at[t.layout].PT; pt == t.last {
			t.owed++
		} else {
			t.last = pt
			for _, tlb := range t.tlbs {
				tlb.Lookup(pt)
			}
		}
	}
	if sanitizing {
		m.sanMiss(ref, at)
	}
}

// Settle books the TLB hits owed since the last Settle. Call it before
// reading the members' Counters.
//
// texlint:hotpath
func (m *MissLists) Settle() {
	for i := range m.tlbs {
		t := &m.tlbs[i]
		for _, tlb := range t.tlbs {
			tlb.RecordHits(t.owed)
		}
		t.owed = 0
	}
}
