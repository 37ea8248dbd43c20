package cache

import "fmt"

// held is the recency a chained cache records for a line the next
// smaller cache of its chain also holds: newer than any line that cache
// does not hold, so the victim search passes over it.
const held = ^uint64(0)

// L1Chain looks one reference stream up in several L1 caches of one
// associativity, smallest first, and stops at the first hit. Every cache
// indexes its sets with the same SetHash masked to its own set count, so
// a larger cache's sets refine a smaller one's, and under LRU the larger
// cache holds every line the smaller one holds (Mattson et al., IBM
// Systems Journal 1970; Hill & Smith, IEEE Trans. Computers 1989). Once
// one cache hits, every larger one would hit too, so its lookup is
// skipped and the hit booked later by Book.
//
// The chain keeps one clock. A line's last-use time lives in the
// smallest cache that holds it; each larger copy records held instead.
// When a cache evicts a line, the next larger cache's copy takes the
// line's time (which needs the line's set hash: the tag does not give
// it). On a miss, a cache evicts the least recent of its set's lines
// that the next smaller cache does not hold: that cache was filled
// first, and under inclusion every line it holds is newer than any it
// does not. Each cache's hits, misses and contents are therefore those
// of the same cache driven alone through Access.
//
// A chained cache is never driven through Access or flushed, which
// would break inclusion.
type L1Chain struct {
	caches []*L1Cache
	tick   uint64
	// stops[d] counts the lookups that first hit in caches[d] since the
	// last Book; each of them is a hit in every later cache.
	stops []int64
}

// NewL1Chain chains fresh caches of one associativity, given in order of
// strictly increasing set count.
func NewL1Chain(caches ...*L1Cache) (*L1Chain, error) {
	if len(caches) == 0 {
		return nil, fmt.Errorf("cache: empty L1 chain")
	}
	for i, c := range caches {
		if c.stats.Accesses != 0 || c.tick != 0 {
			return nil, fmt.Errorf("cache: chained L1 %d has been accessed", i)
		}
		if i == 0 {
			continue
		}
		if p := caches[i-1]; c.ways != p.ways || c.setMask <= p.setMask {
			return nil, fmt.Errorf("cache: L1 %d (%d sets, %d ways) cannot follow %d sets, %d ways in a chain",
				i, c.Sets(), c.ways, p.Sets(), p.ways)
		}
	}
	for _, c := range caches[:len(caches)-1] {
		c.hashes = make([]uint32, len(c.tags))
	}
	return &L1Chain{caches: caches, stops: make([]int64, len(caches))}, nil
}

// Lookup looks ref up in the chained caches, smallest first, and returns
// its depth d: caches[:d] missed and were filled, and every later cache
// hits. Only the caches up to the first hit are touched.
//
// texlint:hotpath
func (ch *L1Chain) Lookup(ref L1Ref) int {
	ch.tick++
	// The first cache records ref's time; every later one records held,
	// since by then a smaller cache holds ref.
	stamp := ch.tick
	last := len(ch.caches) - 1
	for d, c := range ch.caches {
		c.stats.Accesses++
		base := (ref.Set & c.setMask) * c.ways
		victim := base
		oldest := c.lastUse[base]
		for w := uint32(0); w < c.ways; w++ {
			line := base + w
			if c.tags[line] == ref.Tag {
				c.lastUse[line] = stamp
				ch.stops[d]++
				return d
			}
			if c.lastUse[line] < oldest {
				oldest = c.lastUse[line]
				victim = line
			}
		}
		c.stats.Misses++
		if d < last {
			if c.tags[victim] != invalidTag {
				ch.caches[d+1].release(c.tags[victim], c.hashes[victim], oldest)
			}
			c.hashes[victim] = ref.Set
		}
		c.tags[victim] = ref.Tag
		c.lastUse[victim] = stamp
		stamp = held
	}
	return len(ch.caches)
}

// release gives this cache's copy of a line the next smaller cache just
// evicted that line's last-use time t. Inclusion guarantees the copy.
//
// texlint:hotpath
func (c *L1Cache) release(tag uint64, set uint32, t uint64) {
	base := (set & c.setMask) * c.ways
	for w := uint32(0); w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.lastUse[base+w] = t
			return
		}
	}
	panic("cache: chained L1 lost inclusion")
}

// RecordHits counts n hits in every chained cache that the caller proved
// without a lookup, under the rule of L1Cache.RecordHits.
//
// texlint:hotpath
func (ch *L1Chain) RecordHits(n int64) {
	for _, c := range ch.caches {
		c.stats.Accesses += n
	}
}

// Book adds to each cache the hits its lookups skipped: a lookup that
// stopped at an earlier cache is a hit here. Call it before reading the
// caches' Stats.
//
// texlint:hotpath
func (ch *L1Chain) Book() {
	var skipped int64
	for d, c := range ch.caches {
		c.stats.Accesses += skipped
		skipped += ch.stops[d]
		ch.stops[d] = 0
	}
}
