package texture

import "fmt"

// TileLayout selects the hierarchical tiling parameters of the study:
// square L2 tiles of L2Size x L2Size texels, each divided into square L1
// sub-tiles of L1Size x L1Size texels. The paper studies L2 sizes of 8, 16
// and 32, and L1 sizes of 4 and 8 (§3.2), fixing L1 = 4x4 for simulation.
type TileLayout struct {
	L2Size int // L2 tile edge length in texels
	L1Size int // L1 sub-tile edge length in texels
}

// CanonicalL1 returns the fixed layout used for L1 cache tag calculation in
// the simulator, matching the paper's choice (§3.3): 16x16 L2 tiles over 4x4
// L1 sub-tiles, independent of the L2 cache's simulated tile size. It is a
// function rather than a package-level var so callers cannot mutate the
// canonical choice mid-run.
func CanonicalL1() TileLayout { return TileLayout{L2Size: 16, L1Size: 4} }

// Validate reports whether the layout is usable.
func (l TileLayout) Validate() error {
	if l.L1Size <= 0 || l.L2Size <= 0 {
		return fmt.Errorf("texture: non-positive tile sizes %+v", l)
	}
	if !isPow2(l.L1Size) || !isPow2(l.L2Size) {
		return fmt.Errorf("texture: tile sizes must be powers of two %+v", l)
	}
	if l.L2Size < l.L1Size {
		return fmt.Errorf("texture: L2 tile %d smaller than L1 tile %d", l.L2Size, l.L1Size)
	}
	return nil
}

// SubPerEdge returns the number of L1 sub-tiles along one edge of an L2 tile.
func (l TileLayout) SubPerEdge() int { return l.L2Size / l.L1Size }

// SubPerBlock returns the number of L1 sub-tiles within one L2 tile. This
// bounds the sector bit-vector width: 64 for 32x32 over 4x4.
func (l TileLayout) SubPerBlock() int { s := l.SubPerEdge(); return s * s }

// L2BlockBytes returns the cache storage of one L2 tile at 32-bit texels.
// The hierarchy reads it on every partial hit and full miss.
//
// texlint:hotpath
func (l TileLayout) L2BlockBytes() int {
	return l.L2Size * l.L2Size * CacheTexelBytes
}

// L1BlockBytes returns the cache storage of one L1 sub-tile at 32-bit texels.
func (l TileLayout) L1BlockBytes() int {
	return l.L1Size * l.L1Size * CacheTexelBytes
}

// Virtual is the virtual texture block address <tid, L2, L1> of §2.2:
// TID names the texture, L2 the tile within the texture (numbered
// sequentially from the first block of the lowest-resolution MIP level to
// the last block of the base level, each level starting a new block), and
// L1 the sub-tile within its parent L2 tile.
type Virtual struct {
	TID ID
	L2  uint32
	L1  uint16
}

// Tiling precomputes the address-translation tables for one texture under
// one layout: the translation from <u, v, m> to <tid, L2, L1> is then a
// small number of shifts, additions, and a table lookup, as the paper
// describes.
type Tiling struct {
	Tex    *Texture
	Layout TileLayout

	// levelBase[m] is the first L2 block number of MIP level m. Numbering
	// starts at the lowest-resolution (last) level per Figure 2.
	levelBase []uint32
	// tilesAcross[m] is the count of L2 tiles along a row of level m.
	tilesAcross []int32

	// Shift amounts derived from the power-of-two tile sizes.
	l2Shift  uint // log2(L2Size)
	l1Shift  uint // log2(L1Size)
	subShift uint // log2(SubPerEdge)
	subMask  int  // SubPerEdge - 1

	numL2 uint32 // total L2 blocks in the texture
}

// NewTiling builds the translation tables for tex under layout.
func NewTiling(tex *Texture, layout TileLayout) (*Tiling, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	ti := &Tiling{
		Tex:         tex,
		Layout:      layout,
		levelBase:   make([]uint32, len(tex.Levels)),
		tilesAcross: make([]int32, len(tex.Levels)),
		l2Shift:     log2(layout.L2Size),
		l1Shift:     log2(layout.L1Size),
		subShift:    log2(layout.SubPerEdge()),
		subMask:     layout.SubPerEdge() - 1,
	}
	// Assign block numbers starting from the lowest MIP level (the last
	// entry of Levels) upward, so block 0 belongs to the 1x1 level.
	var next uint32
	for m := len(tex.Levels) - 1; m >= 0; m-- {
		l := tex.Levels[m]
		across := ceilDiv(l.Width, layout.L2Size)
		down := ceilDiv(l.Height, layout.L2Size)
		ti.tilesAcross[m] = int32(across)
		ti.levelBase[m] = next
		next += uint32(across * down)
	}
	ti.numL2 = next
	return ti, nil
}

// MustNewTiling is NewTiling but panics on error.
func MustNewTiling(tex *Texture, layout TileLayout) *Tiling {
	ti, err := NewTiling(tex, layout)
	if err != nil {
		panic(err)
	}
	return ti
}

func log2(v int) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// NumL2Blocks returns the total number of L2 blocks across all MIP levels,
// i.e. the page-table footprint of this texture (its tlen).
func (ti *Tiling) NumL2Blocks() uint32 { return ti.numL2 }

// Addr translates a texel coordinate <u, v> within MIP level m to the
// virtual texture block address <tid, L2, L1>. u and v must already be
// wrapped into the level extent and m must be a valid level.
//
// texlint:hotpath
func (ti *Tiling) Addr(u, v, m int) Virtual {
	l2u := u >> ti.l2Shift
	l2v := v >> ti.l2Shift
	l2 := ti.levelBase[m] + uint32(l2v)*uint32(ti.tilesAcross[m]) + uint32(l2u)
	su := (u >> ti.l1Shift) & ti.subMask
	sv := (v >> ti.l1Shift) & ti.subMask
	l1 := uint16(sv<<ti.subShift | su)
	return Virtual{TID: ti.Tex.ID, L2: l2, L1: l1}
}

// LevelOfL2 returns the MIP level containing the given L2 block number,
// or -1 if out of range. Used by tests and trace tooling.
func (ti *Tiling) LevelOfL2(l2 uint32) int {
	if l2 >= ti.numL2 {
		return -1
	}
	for m := 0; m < len(ti.levelBase); m++ {
		// levelBase decreases with m (level 0 has the largest base).
		if l2 >= ti.levelBase[m] {
			return m
		}
	}
	return -1
}

// TexelOrigin inverts Addr: it returns the texel coordinate of the top-left
// corner of the L1 sub-tile named by (l2, l1), plus its MIP level.
func (ti *Tiling) TexelOrigin(l2 uint32, l1 uint16) (u, v, m int, ok bool) {
	m = ti.LevelOfL2(l2)
	if m < 0 {
		return 0, 0, 0, false
	}
	rel := l2 - ti.levelBase[m]
	across := uint32(ti.tilesAcross[m])
	l2u := int(rel % across)
	l2v := int(rel / across)
	su := int(l1) & ti.subMask
	sv := int(l1) >> ti.subShift
	u = l2u<<ti.l2Shift + su<<ti.l1Shift
	v = l2v<<ti.l2Shift + sv<<ti.l1Shift
	if u >= ti.Tex.Levels[m].Width || v >= ti.Tex.Levels[m].Height {
		return 0, 0, 0, false
	}
	return u, v, m, true
}
