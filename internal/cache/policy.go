package cache

import "fmt"

// Policy selects victims among the physical blocks of the L2 cache. The
// paper uses the clock approximation of LRU; true LRU and random are
// provided for the future-work ablation on replacement behaviour (§6).
type Policy interface {
	// Touch records an access to a physical block.
	Touch(block int)
	// Victim selects a block to evict and returns its index along with
	// the number of candidate blocks examined (the search cost whose
	// "pesky" spikes the paper discusses in §5.4.2).
	Victim() (block, searched int)
	// Reset clears recency state for the given block (the block was
	// deallocated by the host driver).
	Reset(block int)
	// Name identifies the policy in reports.
	Name() string
}

// PolicyKind names a replacement policy.
type PolicyKind int

const (
	// Clock is the paper's choice: LRU approximated by the clock
	// algorithm over the BRL active bits.
	Clock PolicyKind = iota
	// TrueLRU is exact least-recently-used replacement.
	TrueLRU
	// Random picks a uniform random resident block.
	Random
)

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case Clock:
		return "clock"
	case TrueLRU:
		return "lru"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// NewPolicy constructs a policy over numBlocks physical blocks.
func NewPolicy(kind PolicyKind, numBlocks int) Policy {
	switch kind {
	case Clock:
		return newClockPolicy(numBlocks)
	case TrueLRU:
		return newLRUPolicy(numBlocks)
	case Random:
		return newRandomPolicy(numBlocks)
	default:
		panic(fmt.Sprintf("cache: unknown policy %d", int(kind)))
	}
}

// clockPolicy is the paper's Block Replacement List: one active bit per
// physical block, a circular hand, and a march that clears active bits
// until an inactive entry is found.
type clockPolicy struct {
	active []bool
	hand   int
}

func newClockPolicy(n int) *clockPolicy {
	return &clockPolicy{active: make([]bool, n)}
}

func (p *clockPolicy) Touch(block int) { p.active[block] = true }

func (p *clockPolicy) Victim() (int, int) {
	searched := 0
	for p.active[p.hand] {
		p.active[p.hand] = false
		p.hand = (p.hand + 1) % len(p.active)
		searched++
	}
	victim := p.hand
	p.hand = (p.hand + 1) % len(p.active)
	return victim, searched + 1
}

func (p *clockPolicy) Reset(block int) { p.active[block] = false }

func (p *clockPolicy) Name() string { return "clock" }

// lruPolicy is exact LRU via a doubly-linked list over block indices; the
// least recently used block is at the tail.
type lruPolicy struct {
	prev, next []int32
	head, tail int32
}

func newLRUPolicy(n int) *lruPolicy {
	p := &lruPolicy{prev: make([]int32, n), next: make([]int32, n)}
	// Initial order: 0 is most recent, n-1 least recent; any order works
	// since all blocks begin unallocated.
	for i := 0; i < n; i++ {
		p.prev[i] = int32(i - 1)
		p.next[i] = int32(i + 1)
	}
	p.next[n-1] = -1
	p.head = 0
	p.tail = int32(n - 1)
	return p
}

// unlink removes b from the list.
func (p *lruPolicy) unlink(b int32) {
	if p.prev[b] >= 0 {
		p.next[p.prev[b]] = p.next[b]
	} else {
		p.head = p.next[b]
	}
	if p.next[b] >= 0 {
		p.prev[p.next[b]] = p.prev[b]
	} else {
		p.tail = p.prev[b]
	}
}

// moveToFront makes b the most recently used.
func (p *lruPolicy) moveToFront(b int32) {
	if p.head == b {
		return
	}
	p.unlink(b)
	p.prev[b] = -1
	p.next[b] = p.head
	p.prev[p.head] = b
	p.head = b
}

func (p *lruPolicy) Touch(block int) { p.moveToFront(int32(block)) }

func (p *lruPolicy) Victim() (int, int) {
	v := p.tail
	p.moveToFront(v)
	return int(v), 1
}

func (p *lruPolicy) Reset(block int) {
	// A deallocated block becomes the preferred victim.
	b := int32(block)
	if p.tail == b {
		return
	}
	p.unlink(b)
	p.prev[b] = p.tail
	p.next[b] = -1
	p.next[p.tail] = b
	p.tail = b
}

func (p *lruPolicy) Name() string { return "lru" }

// randomPolicy selects victims with an xorshift PRNG; deterministic across
// runs for reproducibility.
type randomPolicy struct {
	n     int
	state uint64
}

func newRandomPolicy(n int) *randomPolicy {
	return &randomPolicy{n: n, state: 0x9E3779B97F4A7C15}
}

func (p *randomPolicy) Touch(int) {}

func (p *randomPolicy) Victim() (int, int) {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return int(p.state % uint64(p.n)), 1
}

func (p *randomPolicy) Reset(int) {}

func (p *randomPolicy) Name() string { return "random" }
