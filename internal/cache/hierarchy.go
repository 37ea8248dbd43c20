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
// each keeping its own TLB and byte counters. An L2's state depends only
// on its configuration and its miss stream, which the shared L1 makes the
// same for every sharer, and no TLB feeds back into it. The first sharer
// is presented each miss through Miss, which accesses the L2 and returns
// its result; every other sharer is then presented the same miss through
// MissShared with that result, which it books without touching the L2.
type Hierarchy struct {
	L1  *L1Cache
	L2  *L2Cache
	TLB *TLB

	hostBytes    int64
	l2ReadBytes  int64
	l2WriteBytes int64

	// san is the texsan invariant sanitizer; empty unless built with
	// -tags texsan (see sanitize_on.go).
	san sanState
}

// Access runs one texel reference through the hierarchy, following the
// control flow of Figure 7, and accounts the bytes moved.
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
// missed in (and been filled into) a shared h.L1. It returns the L2's
// result for the hierarchies sharing h.L2 to book through MissShared;
// without an L2 the result means nothing.
//
// texlint:hotpath
func (h *Hierarchy) Miss(ref Ref) L2Result {
	r := h.accessMiss(ref)
	if sanitizing {
		h.sanAccess(ref, false)
	}
	return r
}

// MissShared is Miss for a hierarchy that shares h.L2 with the one just
// presented the same miss, whose L2 access returned r: it looks the page
// up in h's own TLB and books r's bytes, leaving the L2 untouched.
//
// texlint:hotpath
func (h *Hierarchy) MissShared(ref Ref, r L2Result) {
	h.bookL2(ref, r)
	if sanitizing {
		h.sanAccess(ref, false)
	}
}

// accessMiss services an L1 miss: a host download under the pull
// architecture, otherwise an L2 access booked by bookL2.
//
// texlint:hotpath
func (h *Hierarchy) accessMiss(ref Ref) L2Result {
	if h.L2 == nil {
		// Pull architecture: download the L1 tile from system memory.
		h.hostBytes += L1LineBytes
		return L2FullMiss
	}
	r := h.L2.Access(ref.PTIndex, ref.Sub)
	h.bookL2(ref, r)
	return r
}

// bookL2 applies Figure 7's rules to an L1 miss whose L2 access returned
// r: the TLB lookup of its page, and the bytes r moves.
//
// texlint:hotpath
func (h *Hierarchy) bookL2(ref Ref, r L2Result) {
	if h.TLB != nil {
		h.TLB.Lookup(ref.PTIndex)
	}
	switch r {
	case L2FullHit:
		// Load the L1 sub-block from L2 cache memory into L1.
		h.l2ReadBytes += L1LineBytes
	case L2PartialHit, L2FullMiss:
		// Download from system memory into L2 and, in parallel, into
		// L1 (step F removes the latency of a second hop).
		dl := int64(L1LineBytes)
		if h.L2.Config().NoSectorMapping {
			dl = int64(h.L2.Config().Layout.L2BlockBytes())
		}
		h.hostBytes += dl
		h.l2WriteBytes += dl
	}
}

// Counters returns a snapshot of all counters.
func (h *Hierarchy) Counters() Counters {
	c := Counters{
		L1:           h.L1.Stats(),
		HostBytes:    h.hostBytes,
		L2ReadBytes:  h.l2ReadBytes,
		L2WriteBytes: h.l2WriteBytes,
	}
	if h.L2 != nil {
		c.L2 = h.L2.Stats()
	}
	if h.TLB != nil {
		c.TLB = h.TLB.Stats()
	}
	return c
}
