package cache

// TLB is the texture page table translation lookaside buffer of §5.4.3: a
// small fully-associative buffer of recently used page-table entries with
// round-robin replacement. Because page tables live in the same external
// DRAM as L2 cache blocks, a TLB hit avoids a DRAM access on the L1-miss
// path; the paper shows 16 entries capture >90% of lookups.
type TLB struct {
	entries []uint32
	next    int
	hot     int
	lookups int64
	hits    int64
}

// tlbInvalid marks an empty TLB slot; page-table indices are far smaller.
const tlbInvalid = ^uint32(0)

// NewTLB constructs a TLB with n entries. n == 0 disables the TLB (every
// Lookup misses).
func NewTLB(n int) *TLB {
	t := &TLB{entries: make([]uint32, n)}
	for i := range t.entries {
		t.entries[i] = tlbInvalid
	}
	return t
}

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return len(t.entries) }

// Lookup checks whether the page-table index is cached, inserting it with
// round-robin replacement on a miss. It returns true on a hit.
//
// The hot index remembers the most recently touched slot and is probed
// before the associative scan. Texel streams revisit the same page many
// times in a row, so most hits resolve on that single compare. The probe
// is strictly non-mutating — membership and the round-robin victim
// pointer are exactly those of the plain scan — so hit/miss counters are
// bit-identical with or without it (pinned by TestTLBGoldenCounters and
// checked against the reference model in TestTLBMatchesReferenceModel).
//
// texlint:hotpath
func (t *TLB) Lookup(ptIndex uint32) bool {
	t.lookups++
	n := len(t.entries)
	if n == 0 {
		return false
	}
	if t.entries[t.hot] == ptIndex {
		t.hits++
		return true
	}
	for i, e := range t.entries {
		if e == ptIndex {
			t.hits++
			t.hot = i
			return true
		}
	}
	t.entries[t.next] = ptIndex
	t.hot = t.next
	t.next++
	if t.next == n {
		t.next = 0
	}
	return false
}

// RecordHits counts n hits the caller proved without a lookup: lookups
// of the page looked up last, which a hit or its insertion left
// resident. A hit changes no entry and not the round-robin pointer, so
// skipping it changes no later lookup.
//
// texlint:hotpath
func (t *TLB) RecordHits(n int64) {
	t.lookups += n
	t.hits += n
}

// Invalidate drops any cached translation for the page-table range
// [tstart, tstart+tlen), mirroring texture deallocation.
func (t *TLB) Invalidate(tstart, tlen uint32) {
	for i, e := range t.entries {
		if e != tlbInvalid && e >= tstart && e < tstart+tlen {
			t.entries[i] = tlbInvalid
		}
	}
}

// TLBStats reports lookup counters.
type TLBStats struct {
	Lookups int64
	Hits    int64
}

// HitRate returns hits as a fraction of lookups.
func (s TLBStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() TLBStats { return TLBStats{t.lookups, t.hits} }
