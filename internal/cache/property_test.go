package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"texcache/internal/texture"
)

// TestL2InvariantsUnderRandomStreams drives the L2 cache with randomized
// access streams and checks structural invariants after every access:
// resident blocks never exceed capacity, Contains agrees with the access
// classification, and counters balance.
func TestL2InvariantsUnderRandomStreams(t *testing.T) {
	layout := texture.TileLayout{L2Size: 8, L1Size: 4} // 4 sub-blocks
	f := func(stream []uint16) bool {
		c := MustNewL2(L2Config{
			SizeBytes: 8 * 256, // 8 physical blocks
			Layout:    layout,
			Policy:    Clock,
		}, 64)
		for _, s := range stream {
			pt := uint32(s) % 64
			sub := uint8(s>>6) % 4
			wasResident := c.Contains(pt, sub)
			res := c.Access(pt, sub)
			// Classification must agree with prior residency.
			if wasResident && res != L2FullHit {
				return false
			}
			if !wasResident && res == L2FullHit {
				return false
			}
			// After any access the block is resident.
			if !c.Contains(pt, sub) {
				return false
			}
			if c.ResidentBlocks() > 8 {
				return false
			}
		}
		st := c.Stats()
		return st.Accesses() == int64(len(stream))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestL2PoliciesAgreeOnCapacityMisses: whatever the policy, the number of
// full misses for a stream touching each block exactly once must equal the
// number of distinct blocks (no spurious hits), and with capacity for the
// whole stream no evictions may occur.
func TestL2PoliciesAgreeOnCapacityMisses(t *testing.T) {
	layout := texture.TileLayout{L2Size: 8, L1Size: 4}
	for _, kind := range []PolicyKind{Clock, TrueLRU, Random} {
		c := MustNewL2(L2Config{
			SizeBytes: 64 * 256,
			Layout:    layout,
			Policy:    kind,
		}, 64)
		for pt := uint32(0); pt < 64; pt++ {
			if got := c.Access(pt, 0); got != L2FullMiss {
				t.Errorf("%v: first touch of %d = %v", kind, pt, got)
			}
		}
		st := c.Stats()
		if st.FullMisses != 64 || st.Evictions != 0 {
			t.Errorf("%v: misses %d evictions %d, want 64/0",
				kind, st.FullMisses, st.Evictions)
		}
		// Second pass: all hits, regardless of policy.
		for pt := uint32(0); pt < 64; pt++ {
			if got := c.Access(pt, 0); got != L2FullHit {
				t.Errorf("%v: second touch of %d = %v", kind, pt, got)
			}
		}
	}
}

// TestLRUNeverWorseThanRandom verifies on a looping reference pattern with
// reuse that exact LRU achieves at least as many hits as random.
func TestLRUNeverWorseThanRandom(t *testing.T) {
	layout := texture.TileLayout{L2Size: 8, L1Size: 4}
	run := func(kind PolicyKind) int64 {
		c := MustNewL2(L2Config{
			SizeBytes: 16 * 256, // 16 blocks
			Layout:    layout,
			Policy:    kind,
		}, 64)
		// A sliding window of 12 blocks with heavy reuse.
		for i := 0; i < 4000; i++ {
			base := uint32(i/200) % 40
			pt := (base + uint32(i%12)) % 64
			c.Access(pt, 0)
		}
		return c.Stats().FullHits
	}
	if lru, rnd := run(TrueLRU), run(Random); lru < rnd {
		t.Errorf("LRU hits %d < random hits %d on a reuse-heavy stream", lru, rnd)
	}
}

// missBytes books the bytes of Figure 7 miss by miss, by the rule the
// hierarchy applied before it derived them from its counters.
type missBytes struct{ host, l2Read, l2Write int64 }

// book books one L1 miss whose L2 access returned r; l2 is nil under the
// pull architecture, where r means nothing.
func (b *missBytes) book(l2 *L2Cache, r L2Result) {
	if l2 == nil {
		// Pull architecture: download the L1 tile from system memory.
		b.host += L1LineBytes
		return
	}
	switch r {
	case L2FullHit:
		// Load the L1 sub-block from L2 cache memory into L1.
		b.l2Read += L1LineBytes
	case L2PartialHit, L2FullMiss:
		// Download from system memory into L2 and, in parallel, into L1.
		dl := int64(L1LineBytes)
		if l2.Config().NoSectorMapping {
			dl = int64(l2.Config().Layout.L2BlockBytes())
		}
		b.host += dl
		b.l2Write += dl
	}
}

// TestHierarchyByteConservation checks the bytes Counters derives from
// the transaction counts against an independent booking: twin L1 and L2
// caches, driven by the test alone, book every miss by the per-miss rule
// of missBytes. Over random streams of eight frames it requires every
// frame's bytes and the totals to match, for pull, sector-mapped and
// no-sector-mapping hierarchies, unshared and driven through Access, and
// sharing one L1 and one L2 as the exact engine's fan-out shares them:
// three sharers of the L2, one of them with a TLB, and a pull member,
// presented each miss through one MissLists.
func TestHierarchyByteConservation(t *testing.T) {
	layout := texture.TileLayout{L2Size: 16, L1Size: 4} // 1 KB blocks, 16 subs
	const pages = 64
	newL2 := func(noSector bool) *L2Cache {
		return MustNewL2(L2Config{
			SizeBytes: 8 << 10, Layout: layout, Policy: Clock, NoSectorMapping: noSector,
		}, pages)
	}
	type member struct {
		h            *Hierarchy
		pull         bool // books as the pull architecture
		frame, total missBytes
		prev         Counters
	}
	for _, l2kind := range []string{"pull", "sector", "no-sector"} {
		for _, shared := range []bool{false, true} {
			if shared && l2kind == "pull" {
				continue // the pull member rides every shared setting
			}
			t.Run(fmt.Sprintf("%s/shared=%v", l2kind, shared), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					var twinL2, l2 *L2Cache
					if l2kind != "pull" {
						twinL2, l2 = newL2(l2kind == "no-sector"), newL2(l2kind == "no-sector")
					}
					twinL1, l1 := MustNewL1(2048), MustNewL1(2048)
					var ms []*member
					var lists MissLists
					if shared {
						ms = []*member{
							{h: &Hierarchy{L1: l1, L2: l2}},
							{h: &Hierarchy{L1: l1, L2: l2, TLB: NewTLB(4)}},
							{h: &Hierarchy{L1: l1, L2: l2}},
							{h: &Hierarchy{L1: l1}, pull: true},
						}
						for _, m := range ms {
							lists.Add(m.h, 0)
						}
					} else {
						ms = []*member{{h: &Hierarchy{L1: l1, L2: l2, TLB: NewTLB(4)}, pull: l2 == nil}}
					}
					bytesOf := func(c Counters) missBytes {
						return missBytes{c.HostBytes, c.L2ReadBytes, c.L2WriteBytes}
					}
					base := 0
					for frame := 0; frame < 8; frame++ {
						for _, m := range ms {
							m.frame = missBytes{}
						}
						for n := 0; n < 400; n++ {
							if rng.Intn(50) == 0 {
								base = rng.Intn(pages)
							}
							pt := uint32(base+rng.Intn(6)) % pages
							sub := uint8(rng.Intn(16))
							ref := Ref{
								L1:      L1Ref{Tag: PackTag(0, pt, uint16(sub)), Set: pt*7 + uint32(sub)},
								PTIndex: pt,
								Sub:     sub,
							}
							if !twinL1.Access(ref.L1) {
								var r L2Result
								if twinL2 != nil {
									r = twinL2.Access(pt, sub)
								}
								for _, m := range ms {
									l2 := twinL2
									if m.pull {
										l2 = nil
									}
									m.frame.book(l2, r)
									m.total.book(l2, r)
								}
							}
							if !shared {
								ms[0].h.Access(ref)
							} else if !l1.Access(ref.L1) {
								lists.Miss(ref.L1, []Page{{PT: pt, Sub: sub}})
							}
						}
						lists.Settle()
						for i, m := range ms {
							cur := m.h.Counters()
							if got := bytesOf(cur.Sub(m.prev)); got != m.frame {
								t.Fatalf("seed %d, frame %d, member %d: Counters bytes %+v, booked per miss %+v",
									seed, frame, i, got, m.frame)
							}
							m.prev = cur
						}
					}
					for i, m := range ms {
						if got := bytesOf(m.h.Counters()); got != m.total {
							t.Fatalf("seed %d, member %d: total Counters bytes %+v, booked per miss %+v",
								seed, i, got, m.total)
						}
					}
					if twinL2 != nil {
						st := twinL2.Stats()
						// Without sector mapping a miss downloads the whole
						// block, so no access is a partial hit.
						partial := st.PartialHits > 0 || l2kind == "no-sector"
						if st.FullHits == 0 || !partial || st.FullMisses == 0 || st.Evictions == 0 {
							t.Fatalf("seed %d: the stream missed an L2 outcome: %+v", seed, st)
						}
					}
				}
			})
		}
	}
}

// TestClockEventuallyEvictsEverything: under continuous conflict pressure
// every physical block gets recycled (no starvation/leak).
func TestClockEventuallyEvictsEverything(t *testing.T) {
	layout := texture.TileLayout{L2Size: 8, L1Size: 4}
	c := MustNewL2(L2Config{
		SizeBytes: 4 * 256, Layout: layout, Policy: Clock,
	}, 1024)
	for pt := uint32(0); pt < 1024; pt++ {
		c.Access(pt, 0)
	}
	st := c.Stats()
	if st.FullMisses != 1024 {
		t.Errorf("misses = %d, want 1024 (no reuse stream)", st.FullMisses)
	}
	if st.Evictions != 1024-4 {
		t.Errorf("evictions = %d, want %d", st.Evictions, 1024-4)
	}
	if got := c.ResidentBlocks(); got != 4 {
		t.Errorf("resident = %d, want 4", got)
	}
}
