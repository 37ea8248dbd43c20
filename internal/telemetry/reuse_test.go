package telemetry

import (
	"math/rand"
	"testing"
)

// naiveReuse is the O(n)-per-access reference implementation: an LRU
// recency list scanned linearly. The tree collector must agree with it
// on every access.
type naiveReuse struct {
	stack []uint32 // most recent first
}

func (n *naiveReuse) access(addr uint32) int64 {
	for i, a := range n.stack {
		if a == addr {
			copy(n.stack[1:i+1], n.stack[:i])
			n.stack[0] = addr
			return int64(i)
		}
	}
	n.stack = append([]uint32{addr}, n.stack...)
	return -1
}

func TestReuseAgainstNaive(t *testing.T) {
	streams := map[string][]uint32{
		"repeat":    {0, 0, 0, 0},
		"pair":      {0, 1, 0, 1, 0},
		"scan":      {0, 1, 2, 3, 0, 1, 2, 3},
		"singleton": {5},
		"mixed":     {3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 8, 1, 4},
	}
	for name, stream := range streams {
		c := NewReuseCollector(16)
		n := &naiveReuse{}
		for i, a := range stream {
			got, want := c.accessDist(a), n.access(a)
			if got != want {
				t.Errorf("%s: access %d (addr %d): distance = %d, want %d",
					name, i, a, got, want)
			}
		}
	}
}

// TestReuseCompaction forces many slot-array compactions (tiny address
// space, long stream) and checks distances stay correct throughout.
func TestReuseCompaction(t *testing.T) {
	const addrs = 8
	c := NewReuseCollector(addrs)
	n := &naiveReuse{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		a := uint32(rng.Intn(addrs))
		got, want := c.accessDist(a), n.access(a)
		if got != want {
			t.Fatalf("access %d (addr %d): distance = %d, want %d", i, a, got, want)
		}
	}
}

func TestReuseHistogram(t *testing.T) {
	c := NewReuseCollector(8)
	// Distances: cold, cold, cold, then 2 (a after b,c), 2 (b after c,a), 0 (b).
	for _, a := range []uint32{0, 1, 2, 0, 1, 1} {
		c.Access(a)
	}
	h := c.Histogram()
	if h.Accesses != 6 || h.Cold != 3 {
		t.Fatalf("accesses = %d cold = %d, want 6 and 3", h.Accesses, h.Cold)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
		if b.Lo > b.Hi {
			t.Errorf("bucket [%d,%d] inverted", b.Lo, b.Hi)
		}
	}
	if total != h.Accesses-h.Cold {
		t.Errorf("bucket total = %d, want %d", total, h.Accesses-h.Cold)
	}
	// Distance 0 once -> bucket [0,0]; distance 2 twice -> bucket [2,3].
	if len(h.Buckets) != 2 || h.Buckets[0] != (ReuseBucket{0, 0, 1}) ||
		h.Buckets[1] != (ReuseBucket{2, 3, 2}) {
		t.Errorf("buckets = %+v", h.Buckets)
	}
}

// TestReuseHitRate reads a fully associative LRU cache's hits off the
// histogram: its hit rate is HitMass over Accesses.
func TestReuseHitRate(t *testing.T) {
	c := NewReuseCollector(8)
	for _, a := range []uint32{0, 1, 0, 1, 0, 1} {
		c.Access(a)
	}
	h := c.Histogram()
	// 4 re-references at distance 1: a 2-block LRU hits all of them, 4
	// of the 6 accesses.
	if got := h.HitMass(2); got != 4 || h.Accesses != 6 {
		t.Errorf("HitMass(2) = %v of %d accesses, want 4 of 6", got, h.Accesses)
	}
	if got := h.HitMass(1); got != 0 {
		t.Errorf("HitMass(1) = %v, want 0", got)
	}
	if got := (ReuseHistogram{}).HitMass(4); got != 0 {
		t.Errorf("empty HitMass = %v, want 0", got)
	}
}

func TestReuseBucketBoundaries(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1 << 40: reuseBuckets - 1}
	for d, want := range cases {
		if got := reuseBucket(d); got != want {
			t.Errorf("reuseBucket(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestReuseRejectsEmptyAddressSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReuseCollector(0) did not panic")
		}
	}()
	NewReuseCollector(0)
}

// FuzzReuseDistance feeds arbitrary byte streams as address streams and
// cross-checks the tree collector against the naive reference, per
// access and on the final histogram totals.
func FuzzReuseDistance(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, stream []byte) {
		const addrs = 16 // tiny, so compaction happens often
		c := NewReuseCollector(addrs)
		n := &naiveReuse{}
		var cold int64
		for i, b := range stream {
			a := uint32(b) % addrs
			got, want := c.accessDist(a), n.access(a)
			if got != want {
				t.Fatalf("access %d (addr %d): distance = %d, want %d", i, a, got, want)
			}
			if want < 0 {
				cold++
			}
		}
		h := c.Histogram()
		if h.Accesses != int64(len(stream)) || h.Cold != cold {
			t.Fatalf("histogram accesses/cold = %d/%d, want %d/%d",
				h.Accesses, h.Cold, len(stream), cold)
		}
	})
}

func BenchmarkReuseAccess(b *testing.B) {
	c := NewReuseCollector(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*2654435761) % 4096)
	}
}
