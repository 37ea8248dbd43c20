package cache

import (
	"testing"
	"testing/quick"
)

func TestNewL1Sizes(t *testing.T) {
	for _, kb := range []int{2, 4, 8, 16, 32} {
		c, err := NewL1(kb * 1024)
		if err != nil {
			t.Fatalf("NewL1(%dKB): %v", kb, err)
		}
		if got := c.SizeBytes(); got != kb*1024 {
			t.Errorf("SizeBytes = %d, want %d", got, kb*1024)
		}
		wantSets := kb * 1024 / L1LineBytes / L1Ways
		if got := c.Sets(); got != wantSets {
			t.Errorf("Sets = %d, want %d", got, wantSets)
		}
	}
}

func TestNewL1Rejects(t *testing.T) {
	for _, sz := range []int{0, 63, 100, 96, 3 * 1024} {
		if _, err := NewL1(sz); err == nil {
			t.Errorf("NewL1(%d) succeeded, want error", sz)
		}
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	c := MustNewL1(2048)
	ref := L1Ref{Tag: PackTag(1, 2, 3), Set: 5}
	if c.Access(ref) {
		t.Fatal("first access hit a cold cache")
	}
	if !c.Access(ref) {
		t.Fatal("second access missed")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses 1 miss", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
}

func TestL1TwoWayAssociativity(t *testing.T) {
	c := MustNewL1(2048)
	// Two distinct tags mapping to the same set must coexist.
	a := L1Ref{Tag: PackTag(1, 0, 0), Set: 7}
	b := L1Ref{Tag: PackTag(2, 0, 0), Set: 7}
	c.Access(a)
	c.Access(b)
	if !c.Contains(a) || !c.Contains(b) {
		t.Fatal("two tags in one set did not coexist in a 2-way cache")
	}
	// A third tag in the same set evicts the LRU line (a, since b was
	// accessed after a).
	d := L1Ref{Tag: PackTag(3, 0, 0), Set: 7}
	c.Access(d)
	if c.Contains(a) {
		t.Error("LRU line a survived a conflicting fill")
	}
	if !c.Contains(b) || !c.Contains(d) {
		t.Error("MRU line b or new line d missing")
	}
}

func TestL1LRUWithinSet(t *testing.T) {
	c := MustNewL1(2048)
	a := L1Ref{Tag: PackTag(1, 0, 0), Set: 3}
	b := L1Ref{Tag: PackTag(2, 0, 0), Set: 3}
	d := L1Ref{Tag: PackTag(3, 0, 0), Set: 3}
	c.Access(a)
	c.Access(b)
	c.Access(a) // refresh a: b is now LRU
	c.Access(d) // should evict b
	if !c.Contains(a) {
		t.Error("recently used line a was evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line b survived")
	}
}

func TestL1SetMasking(t *testing.T) {
	c := MustNewL1(2048) // 16 sets
	// Set hashes beyond the set count must wrap, not fault.
	ref := L1Ref{Tag: PackTag(9, 9, 9), Set: 0xFFFFFFFF}
	c.Access(ref)
	if !c.Contains(ref) {
		t.Error("reference with large set hash not cached")
	}
	// Same tag with an aliasing set hash maps to the same set.
	alias := L1Ref{Tag: PackTag(9, 9, 9), Set: 0xFFFFFFFF & uint32(c.Sets()-1)}
	if !c.Contains(alias) {
		t.Error("masked alias not found")
	}
}

func TestL1Flush(t *testing.T) {
	c := MustNewL1(2048)
	ref := L1Ref{Tag: PackTag(1, 1, 1), Set: 1}
	c.Access(ref)
	c.Flush()
	if c.Contains(ref) {
		t.Error("line survived Flush")
	}
	if got := c.Stats().Accesses; got != 1 {
		t.Errorf("Flush cleared stats: accesses = %d", got)
	}
}

func TestL1ContainsNoSideEffects(t *testing.T) {
	c := MustNewL1(2048)
	ref := L1Ref{Tag: PackTag(1, 1, 1), Set: 1}
	c.Contains(ref)
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("Contains changed stats: %+v", s)
	}
}

func TestPackTagUniqueness(t *testing.T) {
	f := func(tid1, l21 uint32, l11 uint16, tid2, l22 uint32, l12 uint16) bool {
		tid1 &= 0xFFFF
		tid2 &= 0xFFFF
		a := PackTag(tid1, l21, l11)
		b := PackTag(tid2, l22, l12)
		same := tid1 == tid2 && l21 == l22 && l11 == l12
		return (a == b) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetHashSpreadsNeighbours(t *testing.T) {
	// A trilinear footprint touches up to four adjacent tiles in one
	// level; the 6D-blocked hash must give each a distinct set so they
	// never thrash a 2-way set.
	sets := uint32(15) // 16-set mask
	base := SetHash(10, 20, 0, 0) & sets
	seen := map[uint32]bool{base: true}
	for _, d := range [][2]int32{{1, 0}, {0, 1}, {1, 1}} {
		h := SetHash(10+d[0], 20+d[1], 0, 0) & sets
		if seen[h] {
			t.Errorf("adjacent tile (+%d,+%d) collides in set %d", d[0], d[1], h)
		}
		seen[h] = true
	}
}

func TestSetHashDistribution(t *testing.T) {
	// Hashing a dense tile region over 16 sets should use every set.
	counts := make([]int, 16)
	for u := int32(0); u < 32; u++ {
		for v := int32(0); v < 32; v++ {
			counts[SetHash(u, v, 0, 0)&15]++
		}
	}
	for set, n := range counts {
		if n == 0 {
			t.Errorf("set %d never used", set)
		}
	}
}

// TestInterleaveTableMatchesSpread pins the table interleave to the
// shift-and-mask spread8 form it is built from, for every pair of bytes,
// and spread8 itself to a bit-by-bit Morton spread.
func TestInterleaveTableMatchesSpread(t *testing.T) {
	for v := uint32(0); v < 256; v++ {
		var want uint32
		for i := 0; i < 8; i++ {
			want |= (v >> i & 1) << (2 * i)
		}
		if got := spread8(v); got != want {
			t.Fatalf("spread8(%#x) = %#x, want %#x", v, got, want)
		}
	}
	for a := uint32(0); a < 256; a++ {
		for b := uint32(0); b < 256; b++ {
			want := spread8(a) | spread8(b)<<1
			if got := interleave8(a, b); got != want {
				t.Fatalf("interleave8(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
			// Only the low byte of each coordinate enters.
			if got := interleave8(a|0x300, b|0xFF00); got != want {
				t.Fatalf("interleave8(%#x, %#x) = %#x, want %#x", a|0x300, b|0xFF00, got, want)
			}
		}
	}
}

// refSetHash is SetHash's expression with the interleave in its
// shift-and-mask form.
func refSetHash(tileU, tileV int32, level uint8, tid uint32) uint32 {
	u, v := uint32(tileU), uint32(tileV)
	h := spread8(u&0xFF) | spread8(v&0xFF)<<1
	h ^= (u >> 8 * 0x9E37) ^ (v >> 8 * 0x79B9)
	return h + uint32(level)*37 + tid*131
}

// TestSetHashMatchesReference pins SetHash's bits: literal values for
// each term, and the reference expression on tile coordinates at and
// above 256, where the XOR terms of the high bits enter.
func TestSetHashMatchesReference(t *testing.T) {
	for _, c := range []struct {
		u, v  int32
		level uint8
		tid   uint32
		want  uint32
	}{
		{0, 0, 0, 0, 0},
		{0xFF, 0, 0, 0, 0x5555},
		{0, 0xFF, 0, 0, 0xAAAA},
		{256, 0, 0, 0, 0x9E37},
		{0, 256, 0, 0, 0x79B9},
		{0, 0, 1, 1, 37 + 131},
		{257, 258, 0, 0, 0x9 ^ 0x9E37 ^ 0x79B9},
	} {
		if got := SetHash(c.u, c.v, c.level, c.tid); got != c.want {
			t.Errorf("SetHash(%d, %d, %d, %d) = %#x, want %#x", c.u, c.v, c.level, c.tid, got, c.want)
		}
	}
	coords := []int32{0, 1, 255, 256, 257, 383, 511, 512, 1000, 4095, 4096, 65535, 1<<20 - 1, -1}
	for u := int32(240); u < 800; u += 7 {
		coords = append(coords, u)
	}
	for _, u := range coords {
		for _, v := range coords {
			for _, level := range []uint8{0, 3, 15} {
				for _, tid := range []uint32{0, 1, 411, 0xFFFF} {
					if got, want := SetHash(u, v, level, tid), refSetHash(u, v, level, tid); got != want {
						t.Fatalf("SetHash(%d, %d, %d, %d) = %#x, want %#x", u, v, level, tid, got, want)
					}
				}
			}
		}
	}
}

func TestL1StatsSub(t *testing.T) {
	a := L1Stats{Accesses: 100, Misses: 10}
	b := L1Stats{Accesses: 40, Misses: 4}
	d := a.Sub(b)
	if d.Accesses != 60 || d.Misses != 6 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestL1StatsZeroRates(t *testing.T) {
	var s L1Stats
	if s.HitRate() != 0 || s.MissRate() != 0 {
		t.Error("zero stats should have zero rates")
	}
}
