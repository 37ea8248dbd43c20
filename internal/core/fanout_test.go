package core

import (
	"reflect"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/texture"
)

// fanoutSpecPool is the configuration space the fan-out fuzzer draws its
// spec lists from: shared and unshared L1 geometries (direct-mapped,
// 2-way, 4-way, fully associative, a 1 KB L1), chains of 1, 2 and 4 KB
// 2-way L1s and of 4 and 8 KB 4-way ones, pull and L2-backed members of
// one geometry, two members sharing one L2 behind different TLBs, every
// replacement policy, three L2 tile edges, and no sector mapping. The L2s
// are tiny, so the synthetic stream evicts.
func fanoutSpecPool() []CacheSpec {
	l2 := func(kb, edge int, p cache.PolicyKind, noSector bool) *cache.L2Config {
		return &cache.L2Config{
			SizeBytes:       kb << 10,
			Layout:          texture.TileLayout{L2Size: edge, L1Size: 4},
			Policy:          p,
			NoSectorMapping: noSector,
		}
	}
	return []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "l2-2k", L1Bytes: 2 << 10, L1Ways: 2, L2: l2(16, 16, cache.Clock, false), TLBEntries: 4},
		{Name: "l2-2k-lru-8", L1Bytes: 2 << 10, L2: l2(16, 8, cache.TrueLRU, false), TLBEntries: 1},
		{Name: "l2-2k-nosector", L1Bytes: 2 << 10, L2: l2(8, 16, cache.Clock, true)},
		{Name: "pull-1k", L1Bytes: 1 << 10},
		{Name: "l2-4k-4way-random-32", L1Bytes: 4 << 10, L1Ways: 4, L2: l2(32, 32, cache.Random, false), TLBEntries: 2},
		{Name: "pull-1k-full", L1Bytes: 1 << 10, L1Ways: 16},
		{Name: "l2-1k-full", L1Bytes: 1 << 10, L1Ways: 16, L2: l2(16, 16, cache.Clock, false)},
		{Name: "pull-2k-direct", L1Bytes: 2 << 10, L1Ways: 1},
		{Name: "l2-2k-direct", L1Bytes: 2 << 10, L1Ways: 1, L2: l2(16, 16, cache.TrueLRU, false), TLBEntries: 4},
		{Name: "pull-4k", L1Bytes: 4 << 10},
		{Name: "pull-8k-4way", L1Bytes: 8 << 10, L1Ways: 4},
		{Name: "l2-2k-tlb-1", L1Bytes: 2 << 10, L2: l2(16, 16, cache.Clock, false), TLBEntries: 1},
	}
}

// Spec-pool masks for the seed corpus.
const (
	poolAssociative = 0x1CFF // every spec with at least 2 L1 ways
	poolDirect      = 0x303  // direct-mapped L1s beside 2-way ones
	poolFull        = 0x0C1  // fully associative L1s beside one 2-way
	poolAll         = 0x1FFF
	// The 1, 2 and 4 KB 2-way chain, the 4 and 8 KB 4-way chain, and
	// l2-2k's L2 shared with l2-2k-tlb-1.
	poolChains = 0x1C33
	// A direct-mapped chain of one beside the 2-way chain and the
	// shared L2.
	poolChainsDirect = 0x1713
)

// Fan-out fuzzer opcodes: each takes the next byte as its argument.
const (
	opStep     = iota // move the current texel by a small delta
	opJump            // move to another texture, level 0
	opRepeat          // reference the current texel arg+1 times
	opPingLine        // alternate with the line 4 texels right: arg+1 refs
	opPingSet         // alternate with the line 64 texels right, same L1 set
	opPingMip         // alternate with the texel's neighbour level
	opFrame           // end the frame: counters must match
	opLevel           // move to level arg mod levels
	opQuad            // send a bilinear footprint near the texel (quadAt)
	numOps
)

// fanoutStream interprets a fuzzer program as a texel stream over the
// tiny two-texture set, presenting every reference to emit and every
// bilinear footprint to quad.
type fanoutStream struct {
	set        *texture.Set
	tid        texture.ID
	u, v, m    int
	phase      bool // whether the next ping-pong reference is the partner
	emit       func(tid texture.ID, u, v, m int)
	quad       func(tid texture.ID, u0, v0, u1, v1, m int)
	endOfFrame func()
}

// wrap folds a texel coordinate into level m of texture tid.
func (s *fanoutStream) wrap(tid texture.ID, u, v, m int) (int, int) {
	l := s.set.ByID(tid).Levels[m]
	return texture.WrapTexel(u, l.Width), texture.WrapTexel(v, l.Height)
}

// ping alternates n references between the current texel and partner,
// continuing the phase of an earlier ping-pong at the same texel (a run
// that spans a frame boundary continues it).
func (s *fanoutStream) ping(n int, pu, pv, pm int) {
	pu, pv = s.wrap(s.tid, pu, pv, pm)
	for i := 0; i < n; i++ {
		if s.phase {
			s.emit(s.tid, pu, pv, pm)
		} else {
			s.emit(s.tid, s.u, s.v, s.m)
		}
		s.phase = !s.phase
	}
}

// quadAt sends the bilinear footprint that arg places near the current
// texel, leaving the texel where it is. arg%5 puts the footprint inside
// one line, across a u edge, a v edge or a corner of four lines, or
// across the level's wrap edge in both u and v; an odd arg/5 moves it to
// the texel's neighbour level, as a trilinear sample's second footprint.
func (s *fanoutStream) quadAt(arg int) {
	u, v, m := s.u, s.v, s.m
	if arg/5%2 == 1 {
		m++
		if m >= len(s.set.ByID(s.tid).Levels) {
			m -= 2
		}
		u, v = u>>1, v>>1
	}
	switch arg % 5 {
	case 0:
		u, v = u&^3|1, v&^3|1
	case 1:
		u, v = u|3, v&^3|1
	case 2:
		u, v = u&^3|1, v|3
	case 3:
		u, v = u|3, v|3
	case 4:
		u, v = -1, -1
	}
	u0, v0 := s.wrap(s.tid, u, v, m)
	u1, v1 := s.wrap(s.tid, u0+1, v0+1, m)
	s.quad(s.tid, u0, v0, u1, v1, m)
}

// run executes the program; a trailing odd byte is ignored.
func (s *fanoutStream) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := int(prog[i])%numOps, int(prog[i+1])
		levels := len(s.set.ByID(s.tid).Levels)
		switch op {
		case opStep:
			s.u, s.v = s.wrap(s.tid, s.u+arg&7-3, s.v+arg>>3&7-3, s.m)
			s.phase = false
		case opJump:
			s.tid = texture.ID(arg & 1)
			s.m = 0
			s.u, s.v = s.wrap(s.tid, arg*7, arg*13, 0)
			s.phase = false
		case opRepeat:
			for k := 0; k <= arg; k++ {
				s.emit(s.tid, s.u, s.v, s.m)
			}
		case opPingLine:
			s.ping(arg+1, s.u+4, s.v, s.m)
		case opPingSet:
			// A 16-tile step in u moves bit 8 of the interleaved set hash,
			// outside the set mask of every L1 here.
			s.ping(arg+1, s.u+64, s.v, s.m)
		case opPingMip:
			pm := s.m + 1
			if pm >= levels {
				pm = s.m - 1
			}
			if pm < 0 {
				continue
			}
			s.ping(arg+1, s.u>>1, s.v>>1, pm)
		case opFrame:
			s.endOfFrame()
		case opLevel:
			m := arg % levels
			s.u, s.v = s.wrap(s.tid, s.u>>m, s.v>>m, m)
			s.m = m
			s.phase = false
		case opQuad:
			s.quadAt(arg)
		}
	}
	s.endOfFrame()
}

// TestQuadMatchesFourTexels feeds one render stage each bilinear
// footprint through Quad and another the same footprint as four Texel
// calls, both built for one fan-out, and requires equal records, MRU
// filters, batched counts and last line after every call. The
// footprints sit inside one line, across a u edge, a v edge or a corner,
// across the level's wrap edge in u or in both axes, at several places
// of every level down to 2x2 and 1x1. Each one follows a reference to its
// first line, a reference to another line, and itself. The chains are a
// 2-way one of two caches, a direct-mapped one and a fully associative
// one, whose single set records the second A and B of A B A B.
func TestQuadMatchesFourTexels(t *testing.T) {
	set := texture.NewSet()
	set.Register(texture.MustNew("a", 256, 128, texture.RGBA8888, nil))
	set.Register(texture.MustNew("b", 64, 64, texture.RGBA8888, nil))
	fan, err := buildFanout(set, []CacheSpec{
		{Name: "pull-1k", L1Bytes: 1 << 10},
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "pull-2k-direct", L1Bytes: 2 << 10, L1Ways: 1},
		{Name: "pull-1k-full", L1Bytes: 1 << 10, L1Ways: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	quad, texels := newStreamFilter(fan), newStreamFilter(fan)
	calls := 0
	check := func(what string, tid texture.ID, u0, v0, u1, v1, m int) {
		t.Helper()
		calls++
		qb, tb := quad.blk, texels.blk
		if got, want := qb.recs[:qb.n], tb.recs[:tb.n]; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d, %s of tid %d (%d,%d)-(%d,%d) level %d: records\nQuad   %+v\nTexels %+v",
				calls, what, tid, u0, v0, u1, v1, m, got, want)
		}
		if quad.lastKey != texels.lastKey || quad.repeats != texels.repeats ||
			!reflect.DeepEqual(quad.filters, texels.filters) {
			t.Fatalf("call %d, %s of tid %d (%d,%d)-(%d,%d) level %d: lastKey %#x, repeats %d, filters %+v; four Texels: %#x, %d, %+v",
				calls, what, tid, u0, v0, u1, v1, m, quad.lastKey, quad.repeats, quad.filters,
				texels.lastKey, texels.repeats, texels.filters)
		}
		qb.n, tb.n = 0, 0
	}
	texel := func(tid texture.ID, u, v, m int) {
		quad.Texel(tid, u, v, m)
		texels.Texel(tid, u, v, m)
		check("Texel", tid, u, v, u, v, m)
	}
	footprint := func(tid texture.ID, u0, v0, u1, v1, m int) {
		quad.Quad(tid, u0, v0, u1, v1, m)
		texels.Texel(tid, u0, v0, m)
		texels.Texel(tid, u1, v0, m)
		texels.Texel(tid, u0, v1, m)
		texels.Texel(tid, u1, v1, m)
		check("Quad", tid, u0, v0, u1, v1, m)
	}
	for _, tex := range set.All() {
		for m, l := range tex.Levels {
			wrap := func(u, v int) (int, int) {
				return texture.WrapTexel(u, l.Width), texture.WrapTexel(v, l.Height)
			}
			for _, base := range [][2]int{{0, 0}, {37, 22}, {101, 61}, {255, 127}} {
				bu, bv := base[0], base[1]
				for _, at := range [][2]int{
					{bu&^3 | 1, bv&^3 | 1}, // inside one line
					{bu | 3, bv&^3 | 1},    // across a u edge
					{bu&^3 | 1, bv | 3},    // across a v edge
					{bu | 3, bv | 3},       // across a corner
					{-1, bv&^3 | 1},        // across the wrap edge in u
					{-1, -1},               // across the wrap edge in both
				} {
					u0, v0 := wrap(at[0], at[1])
					u1, v1 := wrap(u0+1, v0+1)
					texel(tex.ID, u0, v0, m)
					footprint(tex.ID, u0, v0, u1, v1, m)
					ou, ov := wrap(u0+8, v0+4)
					texel(tex.ID, ou, ov, m)
					footprint(tex.ID, u0, v0, u1, v1, m)
					footprint(tex.ID, u0, v0, u1, v1, m)
				}
			}
		}
	}
}

// FuzzFanoutMatchesPerSpec drives the exact engine's two stages and, as
// the oracle, one unshared addrSink hierarchy per spec with the same
// texel stream, and requires equal counters for every spec at every
// frame boundary. The render stage's sink filters each call's references
// into its block, and the cache stage takes that block at once, as the
// engine's caller takes blocks from the ring, so both stages run through
// the engine's own functions on one goroutine. The spec list is any
// non-empty subset of fanoutSpecPool, so L1 sharing, L1 chains, L2
// sharing, lazy L2 translation, the batching of repeats and of hits on a
// set's most recent line, and the quad route that takes a footprint
// inside one line whole all meet arbitrary stream shapes. The oracle
// sees a footprint as its four texels.
func FuzzFanoutMatchesPerSpec(f *testing.F) {
	long := []byte{opRepeat, 255, opRepeat, 255, opStep, 0x1B, opRepeat, 200, opFrame, 0}
	sameSet := []byte{opPingSet, 30, opStep, 0x12, opPingSet, 31, opPingSet, 0, opFrame, 0,
		opJump, 5, opPingSet, 63}
	crossSet := []byte{opPingLine, 30, opStep, 0x09, opPingLine, 31, opLevel, 1, opPingLine, 6,
		opPingMip, 33, opStep, 0x3F, opPingMip, 32}
	spanFrame := []byte{opPingLine, 6, opFrame, 0, opPingLine, 7, opRepeat, 3, opFrame, 0,
		opPingMip, 8, opFrame, 0, opPingMip, 9}
	// Every footprint placement at the texel's level and the next, each
	// checked at a frame boundary (a later footprint would book a line a
	// wrong quad route skipped), as the texel steps right and down.
	quads := make([]byte, 0, 512)
	for k := 0; k < 12; k++ {
		for arg := 0; arg < 10; arg++ {
			quads = append(quads, opQuad, byte(arg), opFrame, 0)
		}
		quads = append(quads, opStep, 0x25)
	}
	// The trilinear straddle: a footprint across a u edge at level m and
	// its partner at m+1, two lines each, cycled as the texel steps right.
	straddle := make([]byte, 0, 256)
	for k := 0; k < 24; k++ {
		straddle = append(straddle, opQuad, 1, opQuad, 6, opQuad, 1, opQuad, 6, opStep, 0x1C)
		if k%8 == 7 {
			straddle = append(straddle, opFrame, 0)
		}
	}
	walk := make([]byte, 0, 2048)
	state := uint32(0x9E3779B9)
	for len(walk) < cap(walk) {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		walk = append(walk, byte(state), byte(state>>8)%64)
	}
	for _, seed := range []struct {
		mask uint16
		prog []byte
	}{
		{poolAssociative, long},
		{poolAssociative, sameSet},
		{poolAssociative, crossSet},
		{poolAssociative, spanFrame},
		{poolDirect, sameSet},
		{poolDirect, crossSet},
		{poolDirect, spanFrame},
		{poolFull, sameSet},
		{poolFull, spanFrame},
		{poolAssociative, walk},
		{poolAll, walk},
		{poolChains, sameSet},
		{poolChains, crossSet},
		{poolChains, spanFrame},
		{poolChains, walk},
		{poolChainsDirect, crossSet},
		{poolChainsDirect, walk},
		{poolAssociative, quads},
		{poolChains, quads},
		{poolDirect, straddle},
		{poolFull, straddle},
		{poolChainsDirect, straddle},
	} {
		f.Add(seed.mask, seed.prog)
	}

	set := texture.NewSet()
	set.Register(texture.MustNew("a", 256, 128, texture.RGBA8888, nil))
	set.Register(texture.MustNew("b", 64, 64, texture.RGBA8888, nil))
	set.MustPrepare(texture.CanonicalL1())
	pool := fanoutSpecPool()

	f.Fuzz(func(t *testing.T, mask uint16, prog []byte) {
		if len(prog) > 1<<12 {
			prog = prog[:1<<12]
		}
		var specs []CacheSpec
		for i, spec := range pool {
			if mask&(1<<i) != 0 {
				specs = append(specs, spec)
			}
		}
		if len(specs) == 0 {
			specs = pool
		}
		sink, err := buildFanout(set, specs)
		if err != nil {
			t.Fatal(err)
		}
		rs := newStreamFilter(sink)
		// take hands the render stage's block to the cache stage. A call
		// adds at most four records, so the block never fills.
		take := func() {
			sink.take(rs.blk)
			rs.blk.n, rs.blk.last = 0, false
		}
		oracle := make([]*addrSink, len(specs))
		for i, spec := range specs {
			if _, oracle[i], err = buildHierarchy(set, specConfig(Config{}, spec)); err != nil {
				t.Fatal(err)
			}
		}
		frame := 0
		s := &fanoutStream{
			set: set,
			emit: func(tid texture.ID, u, v, m int) {
				rs.Texel(tid, u, v, m)
				take()
				for _, o := range oracle {
					o.Texel(tid, u, v, m)
				}
			},
			quad: func(tid texture.ID, u0, v0, u1, v1, m int) {
				rs.Quad(tid, u0, v0, u1, v1, m)
				take()
				for _, o := range oracle {
					o.Texel(tid, u0, v0, m)
					o.Texel(tid, u1, v0, m)
					o.Texel(tid, u0, v1, m)
					o.Texel(tid, u1, v1, m)
				}
			},
			endOfFrame: func() {
				// The engine's order: close the frame, settle it, then read
				// counters.
				rs.endFrame()
				take()
				for i, o := range oracle {
					got, want := sink.specs[i].hier.Counters(), o.h.Counters()
					if got != want {
						t.Fatalf("frame %d, spec %q:\nfan-out %+v\noracle  %+v",
							frame, specs[i].Name, got, want)
					}
				}
				frame++
			},
		}
		s.run(prog)
	})
}
