package lint

import (
	"go/types"
	"testing"
)

// memFixture type-checks one in-memory file and returns its package and
// texmem facts.
func memFixture(t *testing.T, src string) (*Package, *MemFacts) {
	t.Helper()
	pkg, err := CheckSource("memfix", map[string]string{"memfix.go": src})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	return pkg, CollectFacts([]*Package{pkg}).Mem
}

// TestMemFactsPerCallFixpoint exercises the interprocedural closure: a
// leaf that allocates a large unpooled buffer per call marks its whole
// caller chain PerCall, while pooling — the texsim:pool marker, a
// sync.Pool Get, an explicit capacity — stops the propagation.
func TestMemFactsPerCallFixpoint(t *testing.T) {
	pkg, mem := memFixture(t, `package memfix

import "sync"

func leaf() []byte { return make([]byte, 1<<16) }
func mid() []byte  { return leaf() }
func top() []byte  { return mid() }

// pooled hands out recycled buffers.
//
// texsim:pool
func pooled() []byte { return make([]byte, 1<<16) }

func viaPool() []byte { return pooled() }

var p sync.Pool

func fromPool() []byte  { return p.Get().([]byte) }
func viaGet() []byte    { return fromPool() }
func small() []byte     { return make([]byte, 64) }
func capped(n int) []byte {
	b := make([]byte, 0, n)
	return b
}
`)
	cases := []struct {
		fn      string
		perCall bool
	}{
		{"leaf", true},
		{"mid", true}, // direct callee
		{"top", true}, // two hops, needs the fixpoint
		{"pooled", false},
		{"viaPool", false},
		{"fromPool", false},
		{"viaGet", false},
		{"small", false},
		{"capped", false},
	}
	for _, c := range cases {
		fn := lookupFunc(t, pkg, c.fn)
		if got := mem.PerCall[fn]; got != c.perCall {
			t.Errorf("PerCall[%s] = %v, want %v", c.fn, got, c.perCall)
		}
	}
	for _, name := range []string{"pooled", "fromPool"} {
		if !mem.Pooled[lookupFunc(t, pkg, name)] {
			t.Errorf("Pooled[%s] = false, want true", name)
		}
	}
}

// TestMemFactsAllocSites checks the per-site summaries: kind, size
// class, and where the memory ends up.
func TestMemFactsAllocSites(t *testing.T) {
	pkg, mem := memFixture(t, `package memfix

type state struct{ buf []byte }

func sites(n int, dst [][]byte, s *state) {
	dead := make([]byte, 8192)
	_ = dead
	sized := make([]byte, len(dst))
	dst[0] = sized
	s.buf = make([]byte, 16)
}

func grower(xs []int, v int) []int {
	for i := 0; i < v; i++ {
		xs = append(xs, i)
	}
	return xs
}
`)
	sites := mem.Allocs[lookupFunc(t, pkg, "sites")]
	if len(sites) != 3 {
		t.Fatalf("sites: got %d alloc sites, want 3", len(sites))
	}
	dead, sized, field := sites[0], sites[1], sites[2]
	if dead.Kind != AllocMake || dead.Class != SizeConst || dead.Bytes != 8192 {
		t.Errorf("dead site = %+v, want const 8192-byte make", dead)
	}
	if dead.Escape != EscapeNone {
		t.Errorf("dead site escape = %v, want EscapeNone", dead.Escape)
	}
	if !dead.Large() {
		t.Errorf("8192-byte const site should be Large")
	}
	if sized.Class != SizeParamLen || sized.Param != 1 {
		t.Errorf("sized site = %+v, want SizeParamLen of param 1", sized)
	}
	if sized.Escape != EscapeSink {
		t.Errorf("sized site escape = %v, want EscapeSink (indexed slot)", sized.Escape)
	}
	if field.Class != SizeConst || field.Bytes != 16 || field.Large() {
		t.Errorf("field site = %+v, want small 16-byte const", field)
	}
	if field.Escape != EscapeSink {
		t.Errorf("field site escape = %v, want EscapeSink (struct field)", field.Escape)
	}

	grow := mem.Allocs[lookupFunc(t, pkg, "grower")]
	if len(grow) != 1 {
		t.Fatalf("grower: got %d alloc sites, want 1", len(grow))
	}
	g := grow[0]
	if g.Kind != AllocAppend || g.Class != SizeUnknown || !g.InLoop {
		t.Errorf("grower site = %+v, want in-loop append of unknown size", g)
	}
	if g.Escape != EscapeReturn {
		t.Errorf("grower site escape = %v, want EscapeReturn", g.Escape)
	}
}

// TestMemFactsReusePatterns checks that each recognized reuse idiom
// suppresses the Reused bit's absence.
func TestMemFactsReusePatterns(t *testing.T) {
	pkg, mem := memFixture(t, `package memfix

import "sync"

func scratch(n int, sink func([]byte)) {
	var b []byte
	for i := 0; i < n; i++ {
		b = b[:0]
		b = append(b, byte(i))
		sink(b)
	}
}

func guarded(b []byte, n int) []byte {
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b
}

var factory = sync.Pool{New: func() any { return make([]byte, 1<<16) }}

func prealloc(n int, dst [][]byte) {
	b := make([]byte, 0, 1<<16)
	dst[0] = b
}
`)
	for _, name := range []string{"scratch", "guarded", "prealloc"} {
		for i, s := range mem.Allocs[lookupFunc(t, pkg, name)] {
			if !s.Reused {
				t.Errorf("%s site %d = %+v, want Reused", name, i, s)
			}
		}
		if mem.PerCall[lookupFunc(t, pkg, name)] {
			t.Errorf("PerCall[%s] = true, want false (reuse pattern)", name)
		}
	}
}

// TestMemFactsGrowFieldsAndSpawn checks the buffer-type and goroutine
// facts poolcheck's worker-context rules consume.
func TestMemFactsGrowFieldsAndSpawn(t *testing.T) {
	pkg, mem := memFixture(t, `package memfix

type shardBuffer struct{ data []byte }

func (s *shardBuffer) Write(p []byte) (int, error) {
	s.data = append(s.data, p...)
	return len(p), nil
}

func worker(ch chan int) {
	for range ch {
	}
}

func spawn(ch chan int) {
	go worker(ch)
}
`)
	named, ok := pkg.Types.Scope().Lookup("shardBuffer").Type().(*types.Named)
	if !ok {
		t.Fatal("shardBuffer is not a named type")
	}
	if !mem.GrowFields[named]["data"] {
		t.Errorf("GrowFields[shardBuffer] = %v, want data", mem.GrowFields[named])
	}
	if !mem.Spawners[lookupFunc(t, pkg, "spawn")] {
		t.Error("Spawners[spawn] = false, want true")
	}
	if !mem.Spawned[lookupFunc(t, pkg, "worker")] {
		t.Error("Spawned[worker] = false, want true")
	}
}
