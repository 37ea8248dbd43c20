// Package cache implements the texture cache hierarchy of Cox et al.:
// a small on-chip L1 texture cache (2-way set associative, line size equal
// to a 4x4 texel tile, after Hakura & Gupta), an L2 texture cache in
// accelerator-local DRAM organised as virtual memory (texture page table,
// block replacement list with the clock algorithm, sector mapping of L1
// sub-blocks), and a translation lookaside buffer for the page table.
//
// The package is transaction-accurate, not cycle-accurate: it models which
// blocks move between host memory, L2 and L1 and counts the bytes, matching
// the paper's simulator (§3.3).
package cache

import "fmt"

// L1LineBytes is the size of one L1 cache line: a 4x4 tile of 32-bit
// texels. The paper restricts study to lines equal to tiles (§2.3).
const L1LineBytes = 64

// L1Ways is the associativity of the L1 cache. Hakura argues 2-way
// suffices to avoid conflict misses under trilinear filtering.
const L1Ways = 2

// L1Ref is one texel reference as seen by the L1 cache: a full virtual tag
// <tid, L2, L1> (packed) plus the spatial set hash computed from the 6D
// blocked tile coordinates. The simulator precomputes both.
type L1Ref struct {
	Tag uint64 // packed canonical <tid, L2, L1>
	Set uint32 // spatial hash; the cache masks it to its set count
}

// PackTag packs the canonical virtual address into an L1 tag. The fields
// are sized generously: 16-bit tid, 32-bit L2, 16-bit L1.
//
// texlint:hotpath
func PackTag(tid uint32, l2 uint32, l1 uint16) uint64 {
	return uint64(tid)<<48 | uint64(l2)<<16 | uint64(l1)
}

// SetHash computes the L1 set index hash from tile coordinates, MIP level
// and texture id. Interleaving the low bits of the tile coordinates is the
// "6D blocked representation" placement Hakura suggests: spatially adjacent
// tiles land in distinct sets, so a bilinear/trilinear footprint never
// self-conflicts; level and texture id are folded in to spread MIP levels
// and co-rendered textures. It is small enough to inline into the exact
// engine's render stage, which hashes every line that misses its last-line
// check.
//
// texlint:hotpath
func SetHash(tileU, tileV int32, level uint8, tid uint32) uint32 {
	h := interleave8(uint32(tileU), uint32(tileV))
	h ^= (uint32(tileU) >> 8 * 0x9E37) ^ (uint32(tileV) >> 8 * 0x79B9)
	h += uint32(level) * 37
	h += tid * 131
	return h
}

// spreadTable[b] is spread8(b): one load in place of three shift-and-mask
// steps per coordinate.
var spreadTable = func() (t [256]uint16) {
	for b := range t {
		t[b] = uint16(spread8(uint32(b)))
	}
	return t
}()

// interleave8 interleaves the low 8 bits of a and b (Morton order).
//
// texlint:hotpath
func interleave8(a, b uint32) uint32 {
	return uint32(spreadTable[a&0xFF]) | uint32(spreadTable[b&0xFF])<<1
}

// spread8 spaces the low 8 bits of v into the even bit positions.
func spread8(v uint32) uint32 {
	v &= 0xFF
	v = (v | v<<4) & 0x0F0F
	v = (v | v<<2) & 0x3333
	v = (v | v<<1) & 0x5555
	return v
}

// L1Stats counts L1 cache activity.
type L1Stats struct {
	Accesses int64
	Misses   int64
}

// HitRate returns the fraction of accesses that hit, or 0 with no accesses.
func (s L1Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.Accesses)
}

// MissRate returns the fraction of accesses that missed.
func (s L1Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Sub subtracts an earlier snapshot, yielding the counts in between.
func (s L1Stats) Sub(o L1Stats) L1Stats {
	return L1Stats{s.Accesses - o.Accesses, s.Misses - o.Misses}
}

// L1Cache is a set-associative on-chip texture cache with line size equal
// to the 4x4 L1 tile. Tags are the full virtual address <tid, L2, L1>,
// which (with the spatial set hash) implements the 6D blocked
// representation for collision avoidance. The paper follows Hakura in
// fixing 2-way associativity (NewL1); NewL1Assoc supports direct-mapped
// through fully-associative organisations for the associativity ablation.
type L1Cache struct {
	ways    uint32
	setMask uint32
	// tags[set*ways+way]; the valid bit is folded into tags via the
	// sentinel invalidTag since a packed tag of all-ones cannot occur.
	tags []uint64
	// lastUse[line] orders lines for LRU victim selection within a set.
	lastUse []uint64
	// next[line] is the slot of the line's copy in the next cache of its
	// chain, kept only by a chained cache with a successor (chain.go).
	next  []uint32
	tick  uint64
	stats L1Stats
}

const invalidTag = ^uint64(0)

// NewL1 constructs the paper's 2-way set-associative L1 cache of the given
// total size in bytes.
func NewL1(sizeBytes int) (*L1Cache, error) {
	return NewL1Assoc(sizeBytes, L1Ways)
}

// NewL1Assoc constructs an L1 cache with the given associativity. ways
// must divide the line count, and the resulting set count must be a power
// of two; ways equal to the line count gives a fully associative cache.
func NewL1Assoc(sizeBytes, ways int) (*L1Cache, error) {
	lines := sizeBytes / L1LineBytes
	if ways <= 0 || lines <= 0 || lines%ways != 0 {
		return nil, fmt.Errorf("cache: invalid L1 size %d / ways %d", sizeBytes, ways)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 || lines*L1LineBytes != sizeBytes {
		return nil, fmt.Errorf("cache: invalid L1 size %d bytes (%d sets)", sizeBytes, sets)
	}
	c := &L1Cache{
		ways:    uint32(ways),
		setMask: uint32(sets - 1),
		tags:    make([]uint64, lines),
		lastUse: make([]uint64, lines),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c, nil
}

// MustNewL1 is NewL1 but panics on error.
func MustNewL1(sizeBytes int) *L1Cache {
	c, err := NewL1(sizeBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// MustNewL1Assoc is NewL1Assoc but panics on error.
func MustNewL1Assoc(sizeBytes, ways int) *L1Cache {
	c, err := NewL1Assoc(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets.
func (c *L1Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *L1Cache) Ways() int { return int(c.ways) }

// SizeBytes returns the cache capacity.
func (c *L1Cache) SizeBytes() int { return len(c.tags) * L1LineBytes }

// Access looks up the reference, returning true on a hit. On a miss, the
// LRU line of the set is filled (the caller is responsible for modelling
// where the fill data came from).
//
// texlint:hotpath
func (c *L1Cache) Access(ref L1Ref) bool {
	c.stats.Accesses++
	c.tick++
	base := (ref.Set & c.setMask) * c.ways
	victim := base
	oldest := c.lastUse[base]
	for w := uint32(0); w < c.ways; w++ {
		line := base + w
		if c.tags[line] == ref.Tag {
			c.lastUse[line] = c.tick
			return true
		}
		if c.lastUse[line] < oldest {
			oldest = c.lastUse[line]
			victim = line
		}
	}
	c.stats.Misses++
	c.tags[victim] = ref.Tag
	c.lastUse[victim] = c.tick
	return false
}

// RecordHits counts n hits the caller proved without a lookup. It touches
// no line, so the skipped lookups must be ones that would have left every
// set's LRU order as it is (repeats of the most recent line are).
//
// texlint:hotpath
func (c *L1Cache) RecordHits(n int64) {
	c.stats.Accesses += n
}

// Contains reports whether the reference is resident without touching LRU
// state or statistics.
func (c *L1Cache) Contains(ref L1Ref) bool {
	base := (ref.Set & c.setMask) * c.ways
	for w := uint32(0); w < c.ways; w++ {
		if c.tags[base+w] == ref.Tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line. Statistics are preserved.
func (c *L1Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
}

// Stats returns a snapshot of the counters.
func (c *L1Cache) Stats() L1Stats { return c.stats }
