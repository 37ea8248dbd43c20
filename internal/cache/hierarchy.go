package cache

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
// Hierarchies that differ only below the L1 may share one L1 cache: the
// caller looks each reference up in it once and presents every miss to
// each sharer through Miss. A hierarchy whose L1 is shared must never be
// driven through Access, which would look the reference up again.
//
// Hierarchies that share an L1 may also share an L2 of one configuration,
// each keeping its own TLB. An L2's state depends only on its
// configuration and its miss stream, which the shared L1 makes the same
// for every sharer, and no TLB feeds back into it. The first sharer is
// presented each miss through Miss, which accesses the L2; every other
// sharer is then presented the same miss through MissShared, which looks
// the page up in its own TLB and leaves the L2 untouched. Every sharer's
// byte counts are then the first one's, since they derive from the
// shared caches' counters.
//
// Under the pull architecture a miss changes no state of the hierarchy's
// own, so the caller may skip presenting it misses: see SeesMisses.
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
		h.sanAccess(ref, hit)
	}
}

// Miss is Access below the L1 lookup, for a reference that has already
// missed in (and been filled into) a shared h.L1.
//
// texlint:hotpath
func (h *Hierarchy) Miss(ref Ref) {
	h.accessMiss(ref)
	if sanitizing {
		h.sanAccess(ref, false)
	}
}

// MissShared is Miss for a hierarchy that shares h.L2 with the one just
// presented the same miss: it looks the page up in h's own TLB, leaving
// the L2 untouched.
//
// texlint:hotpath
func (h *Hierarchy) MissShared(ref Ref) {
	if h.TLB != nil {
		h.TLB.Lookup(ref.PTIndex)
	}
	if sanitizing {
		h.sanAccess(ref, false)
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
