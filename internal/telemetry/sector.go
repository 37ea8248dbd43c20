// Sector-aware reuse profiling: one pass over the texel reference
// stream yields the three distance distributions an analytic cache model
// needs to predict the paper's whole capacity sweep.
//
// Per reference <block, sub> (an L2 block and the L1 line inside it):
//
//   - d1, the line stack distance: distinct other lines touched since
//     this line's previous reference. A fully-associative LRU L1 of N1
//     lines hits exactly the references with d1 < N1.
//   - d2, the block stack distance: distinct other blocks touched since
//     this block's previous reference. An LRU L2 of N2 blocks has the
//     block resident exactly when d2 < N2.
//   - M, the sector distance: the maximum d2 over the block's
//     consecutive reference intervals since this line's previous
//     reference. The line's sector bit survives in an N2-block L2
//     exactly when the block was never evicted in between, i.e. M < N2
//     — a whole-window distinct count would miss mid-window block
//     refreshes and over-predict evictions.
//
// The per-reference invariant d2 <= M <= d1 is what lets three 1-D
// histograms answer 2-D (L1 size x L2 size) questions exactly: every
// event set the model needs is nested, so joint counts collapse to
// differences of marginal hit masses (see internal/model/reusemodel).
package telemetry

// SectorProfile is the one-pass locality profile of a reference stream:
// the three distributions above, all collected at the same block
// granularity (BlockEdge-texel square L2 tiles over 4x4-texel lines).
type SectorProfile struct {
	// BlockEdge is the L2 tile edge in texels the profile was collected
	// at; predictions for a cache with a different tile size must be
	// refused (the block address space would be a different unit).
	BlockEdge int            `json:"block_edge"`
	Lines     ReuseHistogram `json:"lines"`
	Blocks    ReuseHistogram `json:"blocks"`
	Sector    ReuseHistogram `json:"sector"`
}

// SectorReuseCollector measures a SectorProfile over a dense block
// address space [0, numBlocks) with subPerBlock lines per block.
// Construct with NewSectorReuseCollector; Access is the hot path and
// performs no allocation.
type SectorReuseCollector struct {
	lines  *ReuseCollector
	blocks *ReuseCollector
	// sectorMax[line] is the maximum block-interval distance >= 2
	// observed since that line's previous reference. Distance-1 intervals
	// — the dominant case, from the two-block alternation of trilinear
	// filtering — are tracked lazily instead: closes[block] counts every
	// closed interval of the block and closeSnap[line] snapshots it at
	// the line's previous reference, so "did any interval close" is one
	// compare and the subPerBlock-wide maximum loop runs only for the
	// rare distances that could exceed 1. The counters are uint32 and
	// compared for equality only: they advance at most once per
	// reference, so they cannot lap each other within any feasible run,
	// and halving the per-line snapshot array keeps more of it cached.
	sectorMax   []int32
	closes      []uint32
	closeSnap   []uint32
	sector      distTally
	subPerBlock uint32
	blockEdge   int
}

// NewSectorReuseCollector sizes the collector for numBlocks L2 blocks of
// subPerBlock lines each, tagged with the tile edge (texels) of the
// block granularity.
func NewSectorReuseCollector(numBlocks, subPerBlock, blockEdge int) *SectorReuseCollector {
	if numBlocks <= 0 || subPerBlock <= 0 {
		panic("telemetry: sector reuse collector needs positive block/sub counts")
	}
	numLines := numBlocks * subPerBlock
	return &SectorReuseCollector{
		lines:       NewReuseCollector(numLines),
		blocks:      NewReuseCollector(numBlocks),
		sectorMax:   make([]int32, numLines),
		closes:      make([]uint32, numBlocks),
		closeSnap:   make([]uint32, numLines),
		sector:      newDistTally(numBlocks),
		subPerBlock: uint32(subPerBlock),
		blockEdge:   blockEdge,
	}
}

// Access records one reference to line sub of block. It is invoked once
// per texel reference on instrumented runs and must stay free of
// allocation and formatting.
//
// texlint:hotpath
func (c *SectorReuseCollector) Access(block uint32, sub uint16) {
	line := block*c.subPerBlock + uint32(sub)
	d1 := c.lines.accessDist(line)
	d2 := c.blocks.accessDist(block)
	if d2 > 0 {
		// A block interval just closed: it spans every line-of-this-
		// block's open window. Distance 1 is folded in lazily through the
		// close counter; anything larger feeds all the running maxima
		// eagerly. d2 == 0 (a same-block run) cannot move a maximum and
		// skips both.
		c.closes[block]++
		if d2 > 1 {
			base := block * c.subPerBlock
			m := int32(d2)
			for i := uint32(0); i < c.subPerBlock; i++ {
				if c.sectorMax[base+i] < m {
					c.sectorMax[base+i] = m
				}
			}
		}
	}
	c.sector.refs++
	if d1 < 0 {
		c.sector.cold++
	} else {
		m := int64(c.sectorMax[line])
		if m == 0 && c.closes[block] != c.closeSnap[line] {
			m = 1
		}
		c.sector.record(m)
	}
	c.sectorMax[line] = 0
	c.closeSnap[line] = c.closes[block]
}

// RecordRepeats tallies n additional references to the most recently
// accessed line. Each such reference has distance 0 in all three
// distributions and leaves every structure untouched, so callers that
// see the texel stream's same-line runs can batch them into one call
// instead of n Access calls — and because pure counts are
// order-independent, the batch may cover an entire run and be flushed
// once at snapshot time.
//
// texlint:hotpath
func (c *SectorReuseCollector) RecordRepeats(n int64) {
	if n <= 0 {
		return
	}
	c.lines.tally.refs += n
	c.lines.tally.hist[0] += n
	c.lines.tally.fine[0] += n
	c.blocks.tally.refs += n
	c.blocks.tally.hist[0] += n
	c.blocks.tally.fine[0] += n
	c.sector.refs += n
	c.sector.hist[0] += n
	c.sector.fine[0] += n
}

// RecordAlternations tallies n references alternating between the two
// most recently accessed lines, which the caller guarantees live in the
// same block (the bilinear ping-pong across a line boundary): each is
// line distance 1, block distance 0, and sector distance 0 — the block
// never closes an interval, so no sector state can move. Only the
// line-stack top-two order depends on n: an odd count leaves the other
// line on top, fixed here by a register swap.
//
// texlint:hotpath
func (c *SectorReuseCollector) RecordAlternations(n int64) {
	if n <= 0 {
		return
	}
	c.lines.tally.refs += n
	c.lines.tally.hist[1] += n
	c.lines.tally.fine[1] += n
	c.blocks.tally.refs += n
	c.blocks.tally.hist[0] += n
	c.blocks.tally.fine[0] += n
	c.sector.refs += n
	c.sector.hist[0] += n
	c.sector.fine[0] += n
	if n&1 == 1 {
		c.lines.regs[0], c.lines.regs[1] = c.lines.regs[1], c.lines.regs[0]
	}
}

// RecordCrossAlternations tallies n references alternating between the
// two most recently accessed lines when they live in different blocks —
// the trilinear ping-pong between two mip levels. Each reference is line
// distance 1 and block distance 1, and each closes exactly one
// distance-1 interval of its own block, so its sector distance is 1
// (nothing else can have raised the running maximum: the two real
// accesses that opened the run reset both lines' maxima, and every
// interval since has distance 1). The blocks' close counters advance by
// each side's share of the run — the side referenced last gets the odd
// reference — and both lines' close snapshots land on their block's
// final count, because each line's last reference coincides with its
// block's last closed interval. (lastBlock, lastSub) must be the side
// referenced last; an odd count leaves the other side's line and block
// on top of their stacks, fixed here by register swaps.
//
// texlint:hotpath
func (c *SectorReuseCollector) RecordCrossAlternations(n int64, lastBlock uint32, lastSub uint16, prevBlock uint32, prevSub uint16) {
	if n <= 0 {
		return
	}
	c.lines.tally.refs += n
	c.lines.tally.hist[1] += n
	c.lines.tally.fine[1] += n
	c.blocks.tally.refs += n
	c.blocks.tally.hist[1] += n
	c.blocks.tally.fine[1] += n
	c.sector.refs += n
	c.sector.hist[1] += n
	c.sector.fine[1] += n
	c.closes[lastBlock] += uint32((n + 1) / 2)
	c.closes[prevBlock] += uint32(n / 2)
	c.closeSnap[lastBlock*c.subPerBlock+uint32(lastSub)] = c.closes[lastBlock]
	c.closeSnap[prevBlock*c.subPerBlock+uint32(prevSub)] = c.closes[prevBlock]
	if n&1 == 1 {
		c.lines.regs[0], c.lines.regs[1] = c.lines.regs[1], c.lines.regs[0]
		c.blocks.regs[0], c.blocks.regs[1] = c.blocks.regs[1], c.blocks.regs[0]
	}
}

// Profile snapshots the collector.
func (c *SectorReuseCollector) Profile() SectorProfile {
	p := SectorProfile{
		BlockEdge: c.blockEdge,
		Lines:     c.lines.Histogram(),
		Blocks:    c.blocks.Histogram(),
		Sector:    c.sector.histogram(),
	}
	p.Blocks.BlockEdge = c.blockEdge
	p.Sector.BlockEdge = c.blockEdge
	return p
}
