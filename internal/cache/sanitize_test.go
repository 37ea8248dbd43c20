//go:build texsan

package cache

import (
	"strings"
	"testing"

	"texcache/internal/texture"
)

// newSanHierarchy builds a small L2-backed hierarchy whose 16 physical
// blocks come under heavy replacement pressure from the 256-entry page
// table, exercising evictions and the weak-inclusion retirement path.
func newSanHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	l2, err := NewL2(L2Config{
		SizeBytes: 16 << 10, // 16 blocks of 16x16 texels
		Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
		Policy:    Clock,
	}, 256)
	if err != nil {
		t.Fatal(err)
	}
	return &Hierarchy{L1: MustNewL1(2048), L2: l2, TLB: NewTLB(16)}
}

// drive pushes n references from a deterministic xorshift stream through
// the hierarchy with a consistent tag <-> (pt, sub) mapping.
func drive(h *Hierarchy, n int) {
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		pt := uint32(state) % 256
		sub := uint8(state>>32) % 16
		h.Access(Ref{
			L1:      L1Ref{Tag: PackTag(0, pt, uint16(sub)), Set: uint32(state >> 40)},
			PTIndex: pt,
			Sub:     sub,
		})
	}
}

// expectPanic runs f and fails unless it panics with a message containing
// want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one containing %q", r, want)
		}
	}()
	f()
}

func TestSanitizerCleanRun(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 3*sanPeriod) // crosses several deep-scan boundaries
	h.sanDeep()           // and one final full scan
	if h.Counters().L1.Accesses != 3*sanPeriod {
		t.Fatal("stream did not reach the hierarchy")
	}
}

func TestSanitizerCleanRunPullArchitecture(t *testing.T) {
	h := &Hierarchy{L1: MustNewL1(2048)}
	drive(h, 2*sanPeriod)
}

func TestSanitizerCleanRunNoSectorMapping(t *testing.T) {
	l2 := MustNewL2(L2Config{
		SizeBytes: 16 << 10,
		Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
		Policy:    Clock, NoSectorMapping: true,
	}, 256)
	h := &Hierarchy{L1: MustNewL1(2048), L2: l2}
	drive(h, 2*sanPeriod)
}

func TestSanitizerCleanAcrossDeleteTexture(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, sanPeriod/2)
	h.L2.DeleteTexture(0, 128) // host driver frees half the page table
	drive(h, sanPeriod)        // survives the next deep scans
	h.sanDeep()
}

func TestSanitizerDetectsCounterDrift(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 100)
	h.hostBytes++ // simulate a lost download
	expectPanic(t, "host bytes", func() { drive(h, 1) })
}

func TestSanitizerDetectsOwnerCorruption(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 100)
	for phys, o := range h.L2.owner {
		if o != 0 {
			h.L2.owner[phys] = 0 // BRL forgets the block's owner
			break
		}
	}
	expectPanic(t, "BRL owner", func() { h.sanDeep() })
}

func TestSanitizerDetectsSectorOutsideMask(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 100)
	for pt := range h.L2.table {
		if h.L2.table[pt].block != 0 {
			h.L2.table[pt].sector |= 1 << 63 // bit beyond the 16 sub-blocks
			break
		}
	}
	expectPanic(t, "outside layout mask", func() { h.sanDeep() })
}

func TestSanitizerDetectsClockHandOutOfRange(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 100)
	h.L2.clock.hand = h.L2.numBlocks
	expectPanic(t, "clock hand", func() { h.sanDeep() })
}

func TestSanitizerDetectsInclusionViolation(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 64)
	// Retire the fills whose block was evicted since the last scan first,
	// so that the fill corrupted below is one the next scan still checks
	// for inclusion rather than retires to stale.
	h.sanDeep()
	// Clear one recorded fill's sector bit without an eviction: the L1
	// line now fronts data L2 no longer holds. The fill with the smallest
	// tag is chosen so that the choice does not follow map order.
	victim, found := uint64(0), false
	for tag, se := range h.san.shadow {
		if h.L2.Contains(se.pt, se.sub) && (!found || tag < victim) {
			victim, found = tag, true
		}
	}
	if !found {
		t.Fatal("no resident fill to corrupt")
	}
	se := h.san.shadow[victim]
	h.L2.table[se.pt].sector &^= 1 << se.sub
	expectPanic(t, "left L2 without an eviction", func() { h.sanDeep() })
}

func TestSanitizerDetectsUnrecordedL1Line(t *testing.T) {
	h := newSanHierarchy(t)
	drive(h, 100)
	for i, tag := range h.L1.tags {
		if tag != invalidTag {
			h.L1.tags[i] = PackTag(7, 7, 7) // line appears from nowhere
			break
		}
	}
	expectPanic(t, "no recorded fill", func() { h.sanDeep() })
}

func TestSanitizerDetectsInconsistentTranslation(t *testing.T) {
	h := newSanHierarchy(t)
	r := Ref{L1: L1Ref{Tag: PackTag(0, 1, 2), Set: 9}, PTIndex: 1, Sub: 2}
	h.Access(r)
	// Evict the line from L1 by filling its set, then re-present the same
	// tag with different page-table coordinates.
	h.Access(Ref{L1: L1Ref{Tag: PackTag(1, 1, 2), Set: 9}, PTIndex: 3, Sub: 2})
	h.Access(Ref{L1: L1Ref{Tag: PackTag(2, 1, 2), Set: 9}, PTIndex: 4, Sub: 2})
	r.PTIndex = 5
	expectPanic(t, "refilled", func() { h.Access(r) })
}
