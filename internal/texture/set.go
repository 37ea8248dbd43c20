package texture

import "fmt"

// Set is the registry of textures an application has loaded, standing in
// for the host driver's texture bookkeeping. It assigns texture IDs and,
// for each tile layout in use, the contiguous page-table ranges
// [tstart, tstart+tlen) that the paper's driver software allocates (§5.2).
type Set struct {
	textures []*Texture
	tilings  map[TileLayout][]*Tiling
	starts   map[TileLayout][]uint32 // tstart per texture, parallel to textures
	totals   map[TileLayout]uint32   // total page-table entries under a layout
}

// NewSet returns an empty texture registry.
func NewSet() *Set {
	return &Set{
		tilings: make(map[TileLayout][]*Tiling),
		starts:  make(map[TileLayout][]uint32),
		totals:  make(map[TileLayout]uint32),
	}
}

// Register adds a texture to the set, assigns its ID, and returns it.
// Textures must be registered before any layout is prepared.
func (s *Set) Register(t *Texture) *Texture {
	if len(s.tilings) > 0 {
		panic("texture: Register after Prepare")
	}
	t.ID = ID(len(s.textures))
	s.textures = append(s.textures, t)
	return t
}

// Len returns the number of registered textures.
func (s *Set) Len() int { return len(s.textures) }

// ByID returns the texture with the given ID. The stats collector calls it
// per texel, so the bad-ID panic carries a constant message.
//
// texlint:hotpath
func (s *Set) ByID(id ID) *Texture {
	if int(id) >= len(s.textures) {
		panic("texture: unknown texture id")
	}
	return s.textures[id]
}

// All returns the registered textures in ID order. The returned slice must
// not be modified.
func (s *Set) All() []*Texture { return s.textures }

// HostBytes returns the total host memory occupied by all registered
// textures at their original depths ("texture loaded into main memory").
func (s *Set) HostBytes() int64 {
	var total int64
	for _, t := range s.textures {
		total += t.HostBytes()
	}
	return total
}

// Prepare builds (and memoizes) the tilings and page-table allocation for
// the given layout. It must be called once per layout before Tiling or
// Start are used; calling it repeatedly is cheap.
func (s *Set) Prepare(layout TileLayout) error {
	if _, ok := s.tilings[layout]; ok {
		return nil
	}
	tilings := make([]*Tiling, len(s.textures))
	starts := make([]uint32, len(s.textures))
	var next uint32
	for i, t := range s.textures {
		ti, err := NewTiling(t, layout)
		if err != nil {
			return err
		}
		tilings[i] = ti
		starts[i] = next
		next += ti.NumL2Blocks()
	}
	s.tilings[layout] = tilings
	s.starts[layout] = starts
	s.totals[layout] = next
	return nil
}

// MustPrepare is Prepare but panics on error.
func (s *Set) MustPrepare(layout TileLayout) {
	if err := s.Prepare(layout); err != nil {
		panic(err)
	}
}

// Tilings returns the per-texture tilings for a prepared layout, indexed by
// texture ID.
func (s *Set) Tilings(layout TileLayout) []*Tiling {
	t, ok := s.tilings[layout]
	if !ok {
		panic(fmt.Sprintf("texture: layout %+v not prepared", layout))
	}
	return t
}

// Start returns the page-table start index (tstart) of the texture under a
// prepared layout.
func (s *Set) Start(layout TileLayout, id ID) uint32 {
	st, ok := s.starts[layout]
	if !ok {
		panic(fmt.Sprintf("texture: layout %+v not prepared", layout))
	}
	return st[id]
}

// PageTableEntries returns the total number of page-table entries required
// to cover every registered texture under a prepared layout.
func (s *Set) PageTableEntries(layout TileLayout) uint32 {
	n, ok := s.totals[layout]
	if !ok {
		panic(fmt.Sprintf("texture: layout %+v not prepared", layout))
	}
	return n
}
