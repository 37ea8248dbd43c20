package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// hitCounts derives, from a stream replayed through the naive O(n)
// stack, the exact number of references a fully-associative LRU cache
// of each queried capacity would hit.
func hitCounts(stream []uint32, caps []int64) map[int64]int64 {
	n := &naiveReuse{}
	counts := make(map[int64]int64, len(caps))
	for _, a := range stream {
		d := n.access(a)
		if d < 0 {
			continue
		}
		for _, c := range caps {
			if d < c {
				counts[c]++
			}
		}
	}
	return counts
}

// TestHitMassExactAtFineCapacities is the regression test for the
// partial-bucket truncation bug: capacities inside the fine-count range
// (and power-of-two capacities above it, which align with bucket
// boundaries) must match the naive stack exactly — including
// adversarial non-power-of-two capacities that land mid-bucket, which
// the old HitRate counted as all-miss.
func TestHitMassExactAtFineCapacities(t *testing.T) {
	const addrs = 600
	rng := rand.New(rand.NewSource(7))
	c := NewReuseCollector(addrs)
	var stream []uint32
	emit := func(a uint32) {
		stream = append(stream, a)
		c.Access(a)
	}
	// Mix of scans (long distances at every length) and random reuse.
	for round := 0; round < 4; round++ {
		for a := 0; a < addrs; a++ {
			emit(uint32(a))
		}
		for i := 0; i < 2000; i++ {
			emit(uint32(rng.Intn(addrs)))
		}
	}
	caps := []int64{1, 2, 3, 5, 7, 12, 33, 100, 127, 129, 255, 300, 500, 599, 600, 1024}
	want := hitCounts(stream, caps)
	h := c.Histogram()
	for _, cap := range caps {
		got := h.HitMass(cap)
		if got != float64(want[cap]) {
			t.Errorf("HitMass(%d) = %v, want exactly %d", cap, got, want[cap])
		}
	}
}

// TestHitMassInterpolatedAboveFine exercises capacities above the
// fine-count range: power-of-two capacities align with bucket
// boundaries and stay exact, and mid-bucket capacities must land within
// the partial bucket's mass of the truth (the interpolation bound) —
// never the old behaviour of dropping the whole bucket.
func TestHitMassInterpolatedAboveFine(t *testing.T) {
	const addrs = 6000 // > fineLimit, so distances above 4096 exist
	if addrs <= fineLimit {
		t.Fatal("test needs an address space larger than fineLimit")
	}
	rng := rand.New(rand.NewSource(11))
	c := NewReuseCollector(addrs)
	var stream []uint32
	for round := 0; round < 2; round++ {
		for a := 0; a < addrs; a++ {
			stream = append(stream, uint32(a))
		}
		for i := 0; i < 1500; i++ {
			stream = append(stream, uint32(rng.Intn(addrs)))
		}
	}
	for _, a := range stream {
		c.Access(a)
	}
	h := c.Histogram()

	exactCaps := []int64{4096, 8192}
	midCaps := []int64{4097, 5000, 5999, 6000, 7321}
	want := hitCounts(stream, append(append([]int64{}, exactCaps...), midCaps...))
	for _, cap := range exactCaps {
		if got := h.HitMass(cap); got != float64(want[cap]) {
			t.Errorf("HitMass(%d) = %v, want exactly %d (bucket-aligned)", cap, got, want[cap])
		}
	}
	// Mass of the log2 bucket containing each mid-bucket capacity bounds
	// the interpolation error.
	bucketMass := func(cap int64) float64 {
		for _, b := range h.Buckets {
			if b.Lo <= cap && cap <= b.Hi {
				return float64(b.Count)
			}
		}
		return 0
	}
	for _, cap := range midCaps {
		got := h.HitMass(cap)
		if diff := math.Abs(got - float64(want[cap])); diff > bucketMass(cap) {
			t.Errorf("HitMass(%d) = %v, want %d within bucket mass %v",
				cap, got, want[cap], bucketMass(cap))
		}
		// The old bug: a partially covered bucket contributed nothing, so
		// the estimate could not exceed the bucket's lower boundary mass.
		if lower := h.HitMass(cap &^ (cap - 1)); cap > 4096 && got < lower {
			t.Errorf("HitMass(%d) = %v below the bucket floor %v", cap, got, lower)
		}
	}
}

// TestHitRateColdMisses pins the cold-miss convention: cold (compulsory)
// misses count against the hit rate (HitMass over Accesses) at every
// capacity, matching the simulator, and an infinite cache hits exactly
// the warm references.
func TestHitRateColdMisses(t *testing.T) {
	c := NewReuseCollector(8)
	for _, a := range []uint32{0, 1, 2, 0, 1, 2} {
		c.Access(a)
	}
	h := c.Histogram()
	if h.Cold != 3 || h.Accesses != 6 {
		t.Fatalf("cold = %d accesses = %d, want 3/6", h.Cold, h.Accesses)
	}
	if got := h.HitMass(1 << 30); got != 3 {
		t.Errorf("infinite-cache HitMass = %v, want 3 of 6 (cold misses still count)", got)
	}
	if got := h.HitMass(0); got != 0 {
		t.Errorf("HitMass(0) = %v, want 0", got)
	}
}

// FuzzReuseHitRate checks the hit-rate invariants on arbitrary streams:
// HitMass stays in [0, warm references], the curve is monotone
// non-decreasing in the capacity, and an infinite cache hits exactly the
// warm references.
func FuzzReuseHitRate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 1}, uint16(100))
	f.Add([]byte{9, 9, 9}, uint16(1))
	f.Add([]byte{}, uint16(5))
	f.Fuzz(func(t *testing.T, stream []byte, capSeed uint16) {
		const addrs = 64
		c := NewReuseCollector(addrs)
		for _, b := range stream {
			c.Access(uint32(b) % addrs)
		}
		h := c.Histogram()
		warm := float64(h.Accesses - h.Cold)
		prev := 0.0
		for cap := int64(0); cap <= addrs+2; cap++ {
			r := h.HitMass(cap)
			if r < 0 || r > warm || math.IsNaN(r) {
				t.Fatalf("HitMass(%d) = %v out of [0,%v]", cap, r, warm)
			}
			if r < prev {
				t.Fatalf("HitMass not monotone: HitMass(%d) = %v < %v", cap, r, prev)
			}
			prev = r
		}
		// Arbitrary larger capacity, derived from the fuzzed seed.
		big := int64(capSeed) + addrs
		if r := h.HitMass(big); r < prev || r > warm {
			t.Fatalf("HitMass(%d) = %v breaks monotonicity past the address space", big, r)
		}
		if r := h.HitMass(1 << 40); r != warm {
			t.Fatalf("infinite-cache HitMass = %v, want the %v warm references", r, warm)
		}
	})
}
