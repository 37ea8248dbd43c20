// Package texture implements the texture substrate of the study: MIP-mapped
// textures (Williams' pyramidal parametrics), hierarchical texture tiling,
// and the virtual texture addressing <tid, L2, L1> of Cox et al. §2.2.
//
// A texture is stored at many resolutions called MIP levels; level 0 is the
// base (finest) image and each successive level is a quarter-size filtered
// copy down to 1x1. Within a MIP level, texels are grouped into square L2
// tiles, and each L2 tile into square L1 sub-tiles. The concatenation
// <tid, L2, L1> uniquely identifies an L1 sub-tile among all textures.
package texture

import (
	"fmt"
	"math/bits"
)

// Format describes the texel storage depth of a texture as resident in host
// memory. The accelerator expands texels to 32 bits for cache storage; the
// push architecture stores textures at their original depth.
type Format int

const (
	// L8 is 8-bit luminance.
	L8 Format = iota
	// RGB565 is 16-bit packed colour.
	RGB565
	// RGB888 is 24-bit colour.
	RGB888
	// RGBA8888 is 32-bit colour with alpha.
	RGBA8888
)

// BytesPerTexel returns the storage cost of one texel in this format. It
// sits on the per-frame push-bytes path, so the impossible-format panic
// carries a constant message rather than formatting the value.
func (f Format) BytesPerTexel() int {
	switch f {
	case L8:
		return 1
	case RGB565:
		return 2
	case RGB888:
		return 3
	case RGBA8888:
		return 4
	default:
		panic("texture: unknown format")
	}
}

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case L8:
		return "L8"
	case RGB565:
		return "RGB565"
	case RGB888:
		return "RGB888"
	case RGBA8888:
		return "RGBA8888"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// CacheTexelBytes is the size of a texel once expanded for cache storage.
// The paper fixes this at 32 bits (§3.2).
const CacheTexelBytes = 4

// ID identifies a texture within a TextureSet (the paper's rid/tid).
type ID uint32

// MipLevel records the dimensions of one level of a MIP pyramid.
type MipLevel struct {
	Width, Height int
}

// Texture is a MIP-mapped 2D image. Texel content is procedural (see
// Pattern); the cache study needs only addresses and sizes, while the
// renderer evaluates Pattern on demand for snapshot images.
type Texture struct {
	ID     ID
	Name   string
	Format Format
	// Levels holds the MIP pyramid; Levels[0] is the base image and the
	// last level is 1x1.
	Levels []MipLevel
	// Pattern supplies texel colour for rendering. May be nil for
	// trace-only textures.
	Pattern Pattern
}

// New constructs a MIP-mapped texture of the given base dimensions.
// Dimensions must be positive powers of two (the standard constraint for
// MIP mapping hardware of the period).
func New(name string, w, h int, format Format, pattern Pattern) (*Texture, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("texture %q: non-positive size %dx%d", name, w, h)
	}
	if !isPow2(w) || !isPow2(h) {
		return nil, fmt.Errorf("texture %q: size %dx%d is not a power of two", name, w, h)
	}
	t := &Texture{Name: name, Format: format, Pattern: pattern}
	for {
		t.Levels = append(t.Levels, MipLevel{w, h})
		if w == 1 && h == 1 {
			break
		}
		w = max(1, w/2)
		h = max(1, h/2)
	}
	return t, nil
}

// MustNew is New but panics on error; for use with constant sizes.
func MustNew(name string, w, h int, format Format, pattern Pattern) *Texture {
	t, err := New(name, w, h, format, pattern)
	if err != nil {
		panic(err)
	}
	return t
}

func isPow2(v int) bool { return v > 0 && bits.OnesCount(uint(v)) == 1 }

// NumLevels returns the number of MIP levels.
func (t *Texture) NumLevels() int { return len(t.Levels) }

// Width returns the base-level width.
func (t *Texture) Width() int { return t.Levels[0].Width }

// Height returns the base-level height.
func (t *Texture) Height() int { return t.Levels[0].Height }

// HostBytes returns the total bytes the texture occupies in host memory at
// its original depth, summed over all MIP levels. The stats collector calls
// it per texel on first touch of a frame.
//
// texlint:hotpath
func (t *Texture) HostBytes() int64 {
	var total int64
	bpt := int64(t.Format.BytesPerTexel())
	for _, l := range t.Levels {
		total += int64(l.Width) * int64(l.Height) * bpt
	}
	return total
}

// Texels returns the total texel count across all MIP levels.
func (t *Texture) Texels() int64 {
	var total int64
	for _, l := range t.Levels {
		total += int64(l.Width) * int64(l.Height)
	}
	return total
}

// ClampLevel clamps a MIP level to the valid range for this texture.
func (t *Texture) ClampLevel(m int) int {
	if m < 0 {
		return 0
	}
	if m >= len(t.Levels) {
		return len(t.Levels) - 1
	}
	return m
}

// WrapTexel maps an arbitrary integer texel coordinate into the level's
// extent using repeat (wrap) addressing, the mode used by both workloads.
// MIP level extents are powers of two (New enforces power-of-two base
// dimensions and halving preserves the property), so the per-texel path
// reduces to a mask; the mod fallback keeps the function total for
// arbitrary extents.
func WrapTexel(c, extent int) int {
	if extent&(extent-1) == 0 {
		return c & (extent - 1)
	}
	c %= extent
	if c < 0 {
		c += extent
	}
	return c
}
