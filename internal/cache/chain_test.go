package cache

import (
	"math/rand"
	"testing"
)

// TestL1ChainMatchesIndependentCaches drives chains of 1-, 2- and 4-way
// caches and, beside each, the same caches unchained through Access, with
// one random stream over few enough lines that every set evicts. After
// every reference the chain's depth must be the number of unchained
// caches that missed, and each chained cache must hold exactly the lines
// its unchained twin holds; after Book their counters must match.
func TestL1ChainMatchesIndependentCaches(t *testing.T) {
	for _, ways := range []int{1, 2, 4} {
		sizes := []int{256 * ways, 512 * ways, 2048 * ways} // 4, 8 and 32 sets
		chained := make([]*L1Cache, 0, len(sizes))
		alone := make([]*L1Cache, 0, len(sizes))
		for _, size := range sizes {
			chained = append(chained, MustNewL1Assoc(size, ways))
			alone = append(alone, MustNewL1Assoc(size, ways))
		}
		ch, err := NewL1Chain(chained...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ways)))
		lines := make([]L1Ref, 0, 96)
		for i := 0; i < cap(lines); i++ {
			lines = append(lines, L1Ref{Tag: uint64(i), Set: rng.Uint32()})
		}
		for n := 0; n < 20000; n++ {
			ref := lines[rng.Intn(len(lines))]
			d := ch.Lookup(ref)
			want := len(alone)
			for i, c := range alone {
				if c.Access(ref) && want == len(alone) {
					want = i
				}
			}
			if d != want {
				t.Fatalf("%d-way, ref %d: depth %d, want %d", ways, n, d, want)
			}
			if n%7 == 0 { // repeats of ref, booked without a lookup
				ch.RecordHits(3)
				for _, c := range alone {
					for k := 0; k < 3; k++ {
						c.Access(ref)
					}
				}
			}
			for i, c := range chained {
				for _, l := range lines {
					if c.Contains(l) != alone[i].Contains(l) {
						t.Fatalf("%d-way, ref %d: %d-byte cache holds tag %d: %v, unchained %v",
							ways, n, sizes[i], l.Tag, c.Contains(l), alone[i].Contains(l))
					}
				}
			}
		}
		ch.Book()
		for i, c := range chained {
			if c.Stats() != alone[i].Stats() {
				t.Errorf("%d-way %d-byte cache: chained %+v, unchained %+v", ways, sizes[i], c.Stats(), alone[i].Stats())
			}
		}
	}
}

// TestNewL1ChainRejects pins the chain's preconditions: one
// associativity, strictly growing set counts, and fresh caches.
func TestNewL1ChainRejects(t *testing.T) {
	used := MustNewL1(4096)
	used.Access(L1Ref{})
	tests := []struct {
		name   string
		caches []*L1Cache
	}{
		{"empty", nil},
		{"mixed ways", []*L1Cache{MustNewL1(2048), MustNewL1Assoc(4096, 4)}},
		{"same size", []*L1Cache{MustNewL1(2048), MustNewL1(2048)}},
		{"shrinking", []*L1Cache{MustNewL1(4096), MustNewL1(2048)}},
		{"accessed", []*L1Cache{MustNewL1(2048), used}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewL1Chain(tt.caches...); err == nil {
				t.Error("NewL1Chain accepted the caches")
			}
		})
	}
}
