//go:build texsan

// Texsan is the runtime invariant sanitizer for the cache hierarchy,
// compiled in with `go test -tags texsan ./...`. It shadows the
// hierarchy's architectural state and re-derives, after every access, the
// counter-conservation identities the simulator's results rest on (the
// byte counts hold by construction: Counters derives them from the
// transaction counts); every sanPeriod accesses it additionally cross-checks
// the full page table, block replacement list, free list and the weak
// L1/L2 inclusion property. "Weak" because the paper forgoes
// back-invalidation (§5.3.2 footnote): an L1 line may legally outlive the
// L2 block it was filled from, so the sanitizer retires — rather than
// flags — fills whose backing block was since evicted, and insists only
// that never-evicted fills stay resident and that every valid L1 line
// traces back to a recorded fill. Any panic below indicates a simulator
// bug, never a legal stream.
//
// The sanitizer assumes the Hierarchy, or the MissLists it is listed in,
// is the sole driver of its TLB, that each hierarchy sharing an L1 is
// listed in the MissLists that presents every miss of it (whose sanMiss
// runs every member's sanitizer), that the hierarchies sharing an L2 also
// share one L1 (so each is presented every access of the L2), and that
// the address
// translation feeding it maps each L1 tag to a fixed <page-table index,
// sub-block> pair for the life of the run, as the simulator's
// precomputed tilings guarantee. The L2 delivers each eviction to every
// hierarchy on it, since each retires its own fills.

package cache

import "fmt"

// sanitizing reports whether the texsan invariant sanitizer is compiled in.
const sanitizing = true

// sanPeriod is the access interval between full structural scans.
const sanPeriod = 4096

// shadowEntry records where an L1 fill came from.
type shadowEntry struct {
	pt  uint32
	sub uint8
}

// sanState is the hierarchy-level sanitizer state.
type sanState struct {
	// shadow maps each L1 tag ever filled to its page-table coordinates,
	// for fills whose backing block has not been evicted since.
	shadow map[uint64]shadowEntry
	// stale holds tags whose backing block was evicted after the fill;
	// their L1 lines are legal but no longer verifiable against L2.
	stale map[uint64]bool
	// evicted accumulates the page-table indices the L2 invalidated, by
	// clock replacement or DeleteTexture, since this hierarchy's last
	// deep scan.
	evicted  map[uint32]bool
	accesses int64
	// misses counts the L1 misses this hierarchy was presented.
	misses int64
}

// l2San is the L2-level sanitizer state.
type l2San struct {
	// sharers holds the state of every hierarchy on this L2, each of
	// which is told of every eviction.
	sharers []*sanState
}

// noteEvict records, for every hierarchy on the L2, that a page-table
// entry lost its physical block.
func (s *l2San) noteEvict(pt uint32) {
	for _, sh := range s.sharers {
		sh.evicted[pt] = true
	}
}

// SanitizedMisses reports how many L1 misses the sanitizer saw this
// hierarchy presented. It exists only under texsan, for tests that
// require a shared L1's every miss to reach every member.
func (h *Hierarchy) SanitizedMisses() int64 { return h.san.misses }

// sanMiss runs every member's sanitizer on a miss of the shared L1, with
// the member's page and the TLB hits its layout's TLBs owe.
func (m *MissLists) sanMiss(l1 L1Ref, at []Page) {
	for _, mb := range m.members {
		ref := Ref{L1: l1}
		var owed int64
		if mb.layout >= 0 {
			ref.PTIndex, ref.Sub = at[mb.layout].PT, at[mb.layout].Sub
			for _, t := range m.tlbs {
				if t.layout == mb.layout && mb.h.TLB != nil {
					owed = t.owed
				}
			}
		}
		mb.h.sanAccess(ref, false, owed)
	}
}

// sanAccess runs after every hierarchy access: it records L1 fills in the
// shadow map, replays the O(1) counter identities, and periodically runs
// the full structural scan. owedTLB counts the TLB hits a MissLists owes
// h.TLB.
func (h *Hierarchy) sanAccess(ref Ref, l1Hit bool, owedTLB int64) {
	s := &h.san
	if s.shadow == nil {
		s.shadow = make(map[uint64]shadowEntry)
		s.stale = make(map[uint64]bool)
		s.evicted = make(map[uint32]bool)
		if h.L2 != nil {
			h.L2.san.sharers = append(h.L2.san.sharers, s)
		}
	}
	if !l1Hit {
		s.misses++
	}
	if !l1Hit && h.L2 != nil {
		if old, ok := s.shadow[ref.L1.Tag]; ok && (old.pt != ref.PTIndex || old.sub != ref.Sub) {
			panic(fmt.Sprintf("texsan: tag %#x refilled from pt=%d sub=%d, previously pt=%d sub=%d",
				ref.L1.Tag, ref.PTIndex, ref.Sub, old.pt, old.sub))
		}
		// The miss path just downloaded or read this sub-block, so it
		// must be resident in L2 right now.
		if !h.L2.Contains(ref.PTIndex, ref.Sub) {
			panic(fmt.Sprintf("texsan: L1 fill of tag %#x not resident in L2 (pt=%d sub=%d)",
				ref.L1.Tag, ref.PTIndex, ref.Sub))
		}
		s.shadow[ref.L1.Tag] = shadowEntry{pt: ref.PTIndex, sub: ref.Sub}
		delete(s.stale, ref.L1.Tag)
	}
	s.accesses++
	h.sanCounters(owedTLB)
	if s.accesses%sanPeriod == 0 {
		h.sanDeep()
	}
}

// sanCounters replays the counter-conservation identities from the raw
// counters, with owedTLB hits not yet booked in h.TLB; it runs after
// every access.
func (h *Hierarchy) sanCounters(owedTLB int64) {
	l1 := &h.L1.stats
	if l1.Misses > l1.Accesses {
		panic("texsan: L1 misses exceed accesses")
	}
	if h.L2 == nil {
		return
	}
	l2 := &h.L2.stats
	acc := l2.FullHits + l2.PartialHits + l2.FullMisses
	if acc != l1.Misses {
		panic(fmt.Sprintf("texsan: %d L2 accesses != %d L1 misses", acc, l1.Misses))
	}
	if l2.Evictions > l2.FullMisses {
		panic("texsan: more evictions than full misses")
	}
	if l2.SearchSteps < l2.FullMisses {
		panic("texsan: victim searches averaged under one step")
	}
	if l2.MaxSearch > h.L2.numBlocks+1 {
		panic(fmt.Sprintf("texsan: clock march of %d exceeds %d blocks + 1", l2.MaxSearch, h.L2.numBlocks))
	}
	if h.TLB != nil {
		if h.TLB.lookups+owedTLB != acc {
			panic(fmt.Sprintf("texsan: %d TLB lookups and %d owed != %d L2 accesses", h.TLB.lookups, owedTLB, acc))
		}
		if h.TLB.hits > h.TLB.lookups {
			panic("texsan: TLB hits exceed lookups")
		}
	}
}

// sanDeep is the full structural scan: weak inclusion over the shadow map
// plus the L2 page-table/BRL/free-list consistency check.
func (h *Hierarchy) sanDeep() {
	if h.L2 == nil {
		return
	}
	// Retire fills whose backing block was evicted or deallocated since
	// the last scan: their L1 lines are legally stale.
	if ev := h.san.evicted; len(ev) > 0 {
		for tag, se := range h.san.shadow {
			if ev[se.pt] {
				delete(h.san.shadow, tag)
				h.san.stale[tag] = true
			}
		}
		clear(ev)
	}
	// Weak inclusion: every recorded fill that survived eviction must
	// still be resident in L2 (sector bits only clear on eviction).
	for tag, se := range h.san.shadow {
		if !h.L2.Contains(se.pt, se.sub) {
			panic(fmt.Sprintf("texsan: sub-block pt=%d sub=%d backing L1 tag %#x left L2 without an eviction",
				se.pt, se.sub, tag))
		}
	}
	// Every valid L1 line must trace back to a recorded fill.
	for _, tag := range h.L1.tags {
		if tag == invalidTag {
			continue
		}
		if _, ok := h.san.shadow[tag]; !ok && !h.san.stale[tag] {
			panic(fmt.Sprintf("texsan: L1 holds tag %#x with no recorded fill", tag))
		}
	}
	h.L2.sanCheck()
}

// sanCheck verifies the L2 structures against each other: the page table
// and BRL owner array must be a bijection over allocated blocks, sector
// vectors must be non-empty exactly on allocated entries and within the
// layout's mask, the free list must hold distinct unowned blocks, and the
// clock hand must be in range.
func (c *L2Cache) sanCheck() {
	refs := make([]int32, c.numBlocks) // physical block -> page-table index + 1
	for pt := range c.table {
		e := c.table[pt]
		if e.sector&^c.fullMask != 0 {
			panic(fmt.Sprintf("texsan: pt=%d sector %#x outside layout mask %#x", pt, e.sector, c.fullMask))
		}
		if e.block == 0 {
			if e.sector != 0 {
				panic(fmt.Sprintf("texsan: pt=%d has sector bits %#x but no block", pt, e.sector))
			}
			continue
		}
		phys := int(e.block - 1)
		if phys < 0 || phys >= c.numBlocks {
			panic(fmt.Sprintf("texsan: pt=%d block handle %d out of range", pt, e.block))
		}
		if refs[phys] != 0 {
			panic(fmt.Sprintf("texsan: physical block %d owned by pt=%d and pt=%d", phys, refs[phys]-1, pt))
		}
		refs[phys] = int32(pt) + 1
		if e.sector == 0 {
			panic(fmt.Sprintf("texsan: pt=%d allocated with empty sector vector", pt))
		}
		if c.owner[phys] != int32(pt)+1 {
			panic(fmt.Sprintf("texsan: BRL owner of block %d is %d, page table says %d", phys, c.owner[phys], pt+1))
		}
	}
	for phys, o := range c.owner {
		if o == 0 {
			if refs[phys] != 0 {
				panic(fmt.Sprintf("texsan: pt=%d maps unowned block %d", refs[phys]-1, phys))
			}
		} else if refs[phys] != o {
			panic(fmt.Sprintf("texsan: BRL owner %d of block %d has no page-table backlink", o, phys))
		}
	}
	seen := make(map[int32]bool, len(c.free))
	for _, f := range c.free {
		if f < 0 || int(f) >= c.numBlocks {
			panic(fmt.Sprintf("texsan: free-list block %d out of range", f))
		}
		if c.owner[f] != 0 {
			panic(fmt.Sprintf("texsan: free-list block %d has owner %d", f, c.owner[f]))
		}
		if seen[f] {
			panic(fmt.Sprintf("texsan: free-list block %d listed twice", f))
		}
		seen[f] = true
	}
	if c.clock != nil {
		c.clock.sanCheck()
	}
}

// sanCheck verifies the clock hand stayed within the BRL.
func (p *clockPolicy) sanCheck() {
	if p.hand < 0 || p.hand >= len(p.active) {
		panic(fmt.Sprintf("texsan: clock hand %d outside [0,%d)", p.hand, len(p.active)))
	}
}
