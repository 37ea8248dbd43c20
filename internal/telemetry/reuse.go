// Reuse-distance (LRU stack distance) histograms over L2 block
// addresses. The distance of a reference is the number of *distinct*
// other blocks touched since the previous reference to the same block;
// a fully-associative LRU cache of N blocks hits exactly the references
// with distance < N, so the histogram is the canonical trace-derived
// locality signal: it predicts hit rate as a function of capacity from
// one pass over the stream (Ling et al., "Fast Modeling L2 Cache Reuse
// Distance Histograms", and Mattson's original stack algorithm).
//
// The collector is the classical O(log n) tree formulation of Mattson's
// stack algorithm, with the live-slot set held as a bitmap plus a
// Fenwick tree over 64-slot groups: the distance of a re-reference is
// one group-prefix query plus a popcount, and the two structures stay
// small enough to be cache-resident even for million-line address
// spaces. Slots are recycled by compaction when the slot array fills, which
// keeps the structure allocation-free after construction — a hard
// requirement, because Access sits on the simulator's per-texel hot
// path (texlint:hotpath, enforced by the hotalloc analyzer).
//
// Distances below fineLimit are additionally counted exactly, one
// counter per distance, so capacity queries at any cache size up to
// fineLimit are histogram-exact rather than log2-bucket approximations.
package telemetry

import "math/bits"

// reuseBuckets is the number of log2 histogram buckets: bucket 0 counts
// distance 0, bucket b >= 1 counts distances in [2^(b-1), 2^b). 2^32
// distinct blocks is far beyond any simulated texture set.
const reuseBuckets = 34

// fineLimit is the exact-count threshold: distances below it are tallied
// one counter per distance, so HitMass is exact for any capacity up to
// fineLimit blocks. 4096 covers every canonical sweep capacity (the
// largest L1 is 512 lines; the 8 MB L2 is 8192 blocks, which falls on a
// log2 bucket boundary and therefore also resolves exactly).
const fineLimit = 4096

// distTally accumulates a distance distribution: exact counts below
// fineLimit, log2 buckets everywhere (the buckets always cover the full
// range, so the fine counts refine rather than replace them).
type distTally struct {
	fine []int64
	hist [reuseBuckets]int64
	cold int64
	refs int64
}

// newDistTally sizes the exact-count array for distances in [0, maxDist).
func newDistTally(maxDist int) distTally {
	n := maxDist
	if n > fineLimit {
		n = fineLimit
	}
	if n < 1 {
		n = 1
	}
	return distTally{fine: make([]int64, n)}
}

// record tallies one observed distance d >= 0. Allocation-free.
//
// texlint:hotpath
func (t *distTally) record(d int64) {
	t.hist[reuseBucket(d)]++
	if d < int64(len(t.fine)) {
		t.fine[d]++
	}
}

// histogram snapshots the tally into the output artifact. The fine array
// is copied trimmed to its last non-zero entry; FineLimit records the
// exactly-covered range regardless of trimming.
func (t *distTally) histogram() ReuseHistogram {
	h := ReuseHistogram{
		Accesses:  t.refs,
		Cold:      t.cold,
		FineLimit: int64(len(t.fine)),
		Buckets:   make([]ReuseBucket, 0, len(t.hist)),
	}
	last := -1
	for d, n := range t.fine {
		if n != 0 {
			last = d
		}
	}
	if last >= 0 {
		h.Fine = make([]int64, last+1)
		copy(h.Fine, t.fine[:last+1])
	}
	for b, n := range t.hist {
		if n == 0 {
			continue
		}
		lo, hi := int64(0), int64(0)
		if b > 0 {
			lo = int64(1) << (b - 1)
			hi = int64(1)<<b - 1
		}
		h.Buckets = append(h.Buckets, ReuseBucket{Lo: lo, Hi: hi, Count: n})
	}
	return h
}

// ReuseCollector measures stack distances over a dense address space
// [0, numAddrs). Construct with NewReuseCollector; Access is the hot
// path and performs no allocation.
type ReuseCollector struct {
	// last maps address -> its live time slot, -1 when never referenced.
	last []int32
	// slotAddr maps time slot -> address, -1 when the slot is stale.
	slotAddr []int32
	// liveBits is a bitmap over slots (bit s set when slot s is live) and
	// gtree a Fenwick tree (1-based) over 64-slot groups of that bitmap
	// carrying each group's live count. A prefix sum is then a group-tree
	// query plus one popcount, and a point update is one bit flip plus a
	// group-tree walk — and, unlike a Fenwick tree over raw slots, both
	// structures together are ~65x smaller than the slot array, small
	// enough to stay cache-resident under million-line address spaces.
	liveBits []uint64
	gtree    []int32
	// next is the next unused time slot; live counts live slots.
	next int
	live int64
	// regs holds the regCount most recent addresses — the top of the LRU
	// stack — in logical recency order (regs[0] newest): a re-reference
	// to regs[j] is distance j and needs no tree or slot work, only a
	// register rotation. That turns the up-to-four-line cycle of a
	// trilinear texel footprint (two mip levels, each possibly straddling
	// a line boundary) into a handful of compares. Register-resident
	// addresses are kept out of the slot structures entirely (their last
	// entry is stale and never consulted, because the register scan runs
	// first): a miss's distance is the live-slot count above the stale
	// slot plus regCount, and demotion is a single front insertion — the
	// demoted entry is the (reuseRegs+1)-th most recent address, so the
	// front slot is exactly its stack position.
	regs     [reuseRegs]int32
	regCount int
	tally    distTally
}

// reuseRegs is the register-file depth: the top-of-stack entries
// resolved without touching the tree. Four covers a trilinear footprint
// that straddles line boundaries on both mip levels.
const reuseRegs = 4

// NewReuseCollector sizes the collector for addresses in [0, numAddrs).
// The slot array is twice the address space, so compaction (which keeps
// only the live slot per address) always reclaims at least half of it.
func NewReuseCollector(numAddrs int) *ReuseCollector {
	if numAddrs <= 0 {
		panic("telemetry: reuse collector needs a positive address space")
	}
	slots := 2 * numAddrs
	if slots < 16 {
		slots = 16
	}
	groups := (slots + 63) / 64
	c := &ReuseCollector{
		last:     make([]int32, numAddrs),
		slotAddr: make([]int32, slots),
		liveBits: make([]uint64, groups),
		gtree:    make([]int32, groups+1),
		tally:    newDistTally(numAddrs),
	}
	for i := range c.last {
		c.last[i] = -1
	}
	for i := range c.slotAddr {
		c.slotAddr[i] = -1
	}
	return c
}

// Access records one reference to addr. It is invoked once per texel
// reference on instrumented runs and must stay free of allocation and
// formatting.
//
// texlint:hotpath
func (c *ReuseCollector) Access(addr uint32) {
	c.accessDist(addr)
}

// accessDist is Access returning the observed distance (-1 for a cold
// first reference), shared with the white-box tests and fuzzers.
//
// texlint:hotpath
func (c *ReuseCollector) accessDist(addr uint32) int64 {
	c.tally.refs++
	a := int32(addr)
	for j := 0; j < c.regCount; j++ {
		if c.regs[j] != a {
			continue
		}
		// Register hit: exactly j distinct addresses sit above addr, so
		// the distance is j, and promotion is a register rotation — the
		// slot structures never see register-resident addresses.
		c.tally.record(int64(j))
		copy(c.regs[1:j+1], c.regs[:j])
		c.regs[0] = a
		return int64(j)
	}
	d := int64(-1)
	if p := c.last[addr]; p < 0 {
		c.tally.cold++
	} else {
		// Live slots strictly after p are the distinct non-register
		// addresses referenced since addr's previous reference; the
		// register entries (all logically above) are not slotted and are
		// added back as a constant.
		d = c.live - c.prefix(int(p)+1) + int64(c.regCount)
		c.tally.record(d)
		c.clearLive(int(p))
		c.slotAddr[p] = -1
		c.live--
	}
	if c.regCount == reuseRegs {
		// The oldest register entry leaves the register file. It is the
		// (reuseRegs+1)-th most recent address — everything slotted is
		// older — so the front slot is exactly its stack position.
		c.insertFront(c.regs[reuseRegs-1])
	} else {
		c.regCount++
	}
	copy(c.regs[1:c.regCount], c.regs[:c.regCount-1])
	c.regs[0] = a
	return d
}

// insertFront claims the next time slot for a, compacting first if the
// slot array is exhausted.
//
// texlint:hotpath
func (c *ReuseCollector) insertFront(a int32) {
	if c.next == len(c.slotAddr) {
		c.compact()
	}
	s := c.next
	c.next++
	c.slotAddr[s] = a
	c.last[a] = int32(s)
	c.setLive(s)
	c.live++
}

// compact reassigns the live slots to the front of the slot array in
// recency order and rebuilds the tree, all in place: live <= numAddrs
// <= len(slotAddr)/2, so at least half the array is reclaimed.
func (c *ReuseCollector) compact() {
	n := 0
	for s := 0; s < c.next; s++ {
		a := c.slotAddr[s]
		if a < 0 {
			continue
		}
		c.slotAddr[s] = -1
		c.slotAddr[n] = a
		c.last[a] = int32(n)
		n++
	}
	c.next = n
	for i := range c.liveBits {
		c.liveBits[i] = 0
	}
	for i := range c.gtree {
		c.gtree[i] = 0
	}
	for s := 0; s < n; s++ {
		c.setLive(s)
	}
}

// setLive marks slot s live: one bit flip plus a group-tree walk.
//
// texlint:hotpath
func (c *ReuseCollector) setLive(s int) {
	c.liveBits[s>>6] |= 1 << (uint(s) & 63)
	for i := s>>6 + 1; i < len(c.gtree); i += i & -i {
		c.gtree[i]++
	}
}

// clearLive marks slot s stale.
//
// texlint:hotpath
func (c *ReuseCollector) clearLive(s int) {
	c.liveBits[s>>6] &^= 1 << (uint(s) & 63)
	for i := s>>6 + 1; i < len(c.gtree); i += i & -i {
		c.gtree[i]--
	}
}

// prefix returns the count of live slots with slot index < i: the
// group-tree prefix over whole 64-slot groups plus a popcount of the
// partial group's bitmap word.
//
// texlint:hotpath
func (c *ReuseCollector) prefix(i int) int64 {
	var s int64
	for g := i >> 6; g > 0; g -= g & -g {
		s += int64(c.gtree[g])
	}
	if r := uint(i) & 63; r != 0 {
		s += int64(bits.OnesCount64(c.liveBits[i>>6] & (1<<r - 1)))
	}
	return s
}

// reuseBucket maps a distance to its log2 bucket.
func reuseBucket(d int64) int {
	b := bits.Len64(uint64(d))
	if b >= reuseBuckets {
		b = reuseBuckets - 1
	}
	return b
}

// ReuseBucket is one non-empty histogram bucket covering distances in
// [Lo, Hi].
type ReuseBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// ReuseHistogram is the collector's output artifact.
type ReuseHistogram struct {
	// Accesses is the total references observed; Cold the first-touch
	// references (infinite distance). Accesses - Cold re-references are
	// distributed over Buckets (and, below FineLimit, over Fine).
	Accesses int64 `json:"accesses"`
	Cold     int64 `json:"cold"`
	// BlockEdge is the tile edge (in texels) of the address granularity
	// the histogram was collected at; 0 means unknown. A capacity model
	// must refuse a histogram whose granularity differs from the cache
	// geometry it is asked about — the counts would be a silent unit
	// error otherwise.
	BlockEdge int `json:"block_edge,omitempty"`
	// FineLimit bounds the exactly-counted distance range: Fine[d] is the
	// exact count of re-references at distance d for every d < FineLimit.
	// Fine may be trimmed of trailing zeros; FineLimit still records the
	// covered range.
	FineLimit int64         `json:"fine_limit,omitempty"`
	Fine      []int64       `json:"fine,omitempty"`
	Buckets   []ReuseBucket `json:"buckets"`
}

// Histogram snapshots the collector. Buckets are ascending and omit
// empty ranges.
func (c *ReuseCollector) Histogram() ReuseHistogram {
	return c.tally.histogram()
}

// HitMass returns the (possibly fractional) number of references a
// fully-associative LRU cache of the given block count would hit.
// Capacities below FineLimit are exact; above it, a partially covered
// log2 bucket contributes linearly interpolated mass — the distances
// within a bucket are assumed uniform, bounding the error by the
// bucket's count instead of silently dropping it (the pre-fix HitRate
// counted a partially covered bucket as all misses, which at
// non-power-of-two capacities was wrong by up to the full bucket mass).
// HitMass(N) / Accesses is the hit rate of such a cache, cold misses
// counted against it.
func (h ReuseHistogram) HitMass(blocks int64) float64 {
	if blocks <= 0 {
		return 0
	}
	var mass float64
	n := blocks
	if n > int64(len(h.Fine)) {
		n = int64(len(h.Fine))
	}
	for d := int64(0); d < n; d++ {
		mass += float64(h.Fine[d])
	}
	if blocks <= h.FineLimit {
		return mass
	}
	for _, b := range h.Buckets {
		if b.Lo < h.FineLimit {
			// Entirely below the exact range: already counted via Fine.
			// FineLimit is always a power of two, so buckets never
			// straddle the boundary.
			continue
		}
		switch {
		case b.Hi < blocks:
			mass += float64(b.Count)
		case b.Lo < blocks:
			mass += float64(b.Count) * float64(blocks-b.Lo) / float64(b.Hi-b.Lo+1)
		}
	}
	return mass
}
