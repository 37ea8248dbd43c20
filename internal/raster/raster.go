// Package raster implements the software rasterizer that generates the
// texel reference stream of the study. Triangles arrive in clip space
// (already frustum-clipped by the scene pipeline); the rasterizer performs
// the viewport transform and walks pixels in scanline order (the paper's
// assumption, §2.3), interpolating texture coordinates with perspective
// correction, selecting a MIP level from the texture-space footprint, and
// emitting every texel reference to a Sink.
//
// An optional colour+depth framebuffer supports snapshot rendering
// (Figure 12), and a z-before-texture mode implements the paper's first
// future-work optimisation (§6): occluded pixels then skip texturing.
package raster

import (
	"fmt"
	"math"

	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/vecmath"
)

// SampleMode selects the texture filter.
type SampleMode int

const (
	// Point samples the nearest texel of the nearest MIP level; the
	// paper's §4 statistics use point sampling to expose basic locality.
	Point SampleMode = iota
	// Bilinear samples a 2x2 footprint of the nearest MIP level.
	Bilinear
	// Trilinear samples 2x2 footprints of the two bracketing MIP levels.
	Trilinear
)

// String implements fmt.Stringer.
func (m SampleMode) String() string {
	switch m {
	case Point:
		return "point"
	case Bilinear:
		return "bilinear"
	case Trilinear:
		return "trilinear"
	default:
		return fmt.Sprintf("SampleMode(%d)", int(m))
	}
}

// Sink receives the texel reference stream. Coordinates are wrapped into
// the level extent and m is a valid level of the texture.
type Sink interface {
	Texel(tid texture.ID, u, v, m int)
}

// QuadSink is a Sink that also takes a bilinear 2x2 footprint in one
// call. Quad receives the texels (u0,v0), (u1,v0), (u0,v1), (u1,v1) of
// level m, in that order, with u1 and v1 the wrapped successors of u0
// and v0: exactly the four Texel calls it stands for. The rasterizer
// asserts the interface once, in SetSink, and then hands every bilinear
// footprint over through Quad; point samples still go through Texel.
type QuadSink interface {
	Sink
	Quad(tid texture.ID, u0, v0, u1, v1, m int)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(tid texture.ID, u, v, m int)

// Texel implements Sink.
func (f SinkFunc) Texel(tid texture.ID, u, v, m int) { f(tid, u, v, m) }

// TraceSink streams texel references straight into a trace.Writer. It is
// a plain Sink: a bilinear footprint reaches it as four Texel calls. W
// may be swapped between frames.
type TraceSink struct{ W *trace.Writer }

// Texel implements Sink.
//
// texlint:hotpath
func (s *TraceSink) Texel(tid texture.ID, u, v, m int) { s.W.Texel(uint32(tid), u, v, m) }

// Vertex is a clip-space vertex with normalized texture coordinates.
type Vertex struct {
	Pos vecmath.Vec4 // clip-space position; W > 0 after near clipping
	UV  vecmath.Vec2 // texture coordinates (may exceed [0,1] for wrap)
}

// Config parameterises a Rasterizer.
type Config struct {
	Width, Height int
	Mode          SampleMode
	// ZBeforeTexture performs the depth test before texture access, so
	// occluded pixels generate no texel traffic (§6 future work). The
	// paper's baseline textures before z.
	ZBeforeTexture bool
	// Framebuffer enables colour output (for snapshots). The depth
	// buffer is always maintained.
	Framebuffer bool
}

// Rasterizer rasterizes textured triangles and streams texel references.
type Rasterizer struct {
	cfg   Config
	depth []float32
	color []texture.RGBA
	sink  Sink
	// quad is sink when it is a QuadSink, asserted once in SetSink
	// rather than per footprint.
	quad   QuadSink
	pixels int64
}

// New constructs a rasterizer.
func New(cfg Config) (*Rasterizer, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("raster: invalid size %dx%d", cfg.Width, cfg.Height)
	}
	r := &Rasterizer{cfg: cfg, depth: make([]float32, cfg.Width*cfg.Height)}
	if cfg.Framebuffer {
		r.color = make([]texture.RGBA, cfg.Width*cfg.Height)
	}
	r.clear()
	return r, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Rasterizer {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the rasterizer configuration.
func (r *Rasterizer) Config() Config { return r.cfg }

// SetSink directs the texel reference stream. A nil sink discards it.
// A QuadSink receives each bilinear footprint through one Quad call.
func (r *Rasterizer) SetSink(s Sink) {
	r.sink = s
	r.quad, _ = s.(QuadSink)
}

func (r *Rasterizer) clear() {
	for i := range r.depth {
		r.depth[i] = math.MaxFloat32
	}
	for i := range r.color {
		r.color[i] = texture.RGBA{R: 24, G: 28, B: 38, A: 255}
	}
}

// BeginFrame clears the depth (and colour) buffers and the pixel counter.
func (r *Rasterizer) BeginFrame() {
	r.clear()
	r.pixels = 0
}

// Pixels returns the textured pixels generated since BeginFrame; dividing
// by the screen resolution yields the paper's depth complexity d.
func (r *Rasterizer) Pixels() int64 { return r.pixels }

// Color returns the framebuffer, or nil when disabled. Row-major,
// index y*Width+x.
func (r *Rasterizer) Color() []texture.RGBA { return r.color }

// gradient holds a screen-space linear interpolant f(x, y) = At*x + Bt*y + Ct.
type gradient struct {
	a, b, c float64
}

func (g gradient) at(x, y float64) float64 { return g.a*x + g.b*y + g.c }

// planeGradients solves for the linear interpolant through three screen
// points with values f0, f1, f2. denom is the doubled signed area.
func planeGradient(x0, y0, x1, y1, x2, y2, invDenom, f0, f1, f2 float64) gradient {
	a := ((f1-f0)*(y2-y0) - (f2-f0)*(y1-y0)) * invDenom
	b := ((f2-f0)*(x1-x0) - (f1-f0)*(x2-x0)) * invDenom
	return gradient{a, b, f0 - a*x0 - b*y0}
}

// DrawTriangle rasterizes one triangle textured by tex with a flat shade
// factor in [0,1] applied to the sampled colour (snapshot lighting).
func (r *Rasterizer) DrawTriangle(tex *texture.Texture, v0, v1, v2 Vertex, shade float64) {
	w, h := float64(r.cfg.Width), float64(r.cfg.Height)
	// Viewport transform. Clipping guarantees W > 0.
	toScreen := func(v Vertex) (x, y, z, invW float64) {
		iw := 1 / v.Pos.W
		x = (v.Pos.X*iw*0.5 + 0.5) * w
		y = (1 - (v.Pos.Y*iw*0.5 + 0.5)) * h
		z = v.Pos.Z * iw // [-1, 1], smaller is nearer
		return x, y, z, iw
	}
	x0, y0, z0, iw0 := toScreen(v0)
	x1, y1, z1, iw1 := toScreen(v1)
	x2, y2, z2, iw2 := toScreen(v2)

	denom := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if denom == 0 {
		return // degenerate
	}
	invDenom := 1 / denom

	// Texture dimensions scale normalized UV into texel space.
	tw := float64(tex.Width())
	th := float64(tex.Height())

	// Perspective-correct interpolants: u/w, v/w, 1/w, and z.
	gu := planeGradient(x0, y0, x1, y1, x2, y2, invDenom,
		v0.UV.X*tw*iw0, v1.UV.X*tw*iw1, v2.UV.X*tw*iw2)
	gv := planeGradient(x0, y0, x1, y1, x2, y2, invDenom,
		v0.UV.Y*th*iw0, v1.UV.Y*th*iw1, v2.UV.Y*th*iw2)
	giw := planeGradient(x0, y0, x1, y1, x2, y2, invDenom, iw0, iw1, iw2)
	gz := planeGradient(x0, y0, x1, y1, x2, y2, invDenom, z0, z1, z2)

	minY := int(math.Floor(min3(y0, y1, y2)))
	maxY := int(math.Ceil(max3(y0, y1, y2)))
	if minY < 0 {
		minY = 0
	}
	if maxY > r.cfg.Height {
		maxY = r.cfg.Height
	}

	// Edge half-planes oriented so that interior points are non-negative.
	type edge struct{ a, b, c float64 }
	mkEdge := func(ax, ay, bx, by float64) edge {
		e := edge{a: by - ay, b: ax - bx}
		e.c = -(e.a*ax + e.b*ay)
		return e
	}
	e01 := mkEdge(x0, y0, x1, y1)
	e12 := mkEdge(x1, y1, x2, y2)
	e20 := mkEdge(x2, y2, x0, y0)
	// The edge function E(P) = a*Px + b*Py + c equals cross(P-A, B-A),
	// which is -denom when evaluated at the opposite vertex; interior
	// points are positive exactly when denom < 0, so flip otherwise.
	if denom > 0 {
		e01.a, e01.b, e01.c = -e01.a, -e01.b, -e01.c
		e12.a, e12.b, e12.c = -e12.a, -e12.b, -e12.c
		e20.a, e20.b, e20.c = -e20.a, -e20.b, -e20.c
	}
	edges := [3]edge{e01, e12, e20}

	// Per-triangle invariants hoisted out of the per-pixel path: the
	// texture, gradients, shade and config flags are loaded once here
	// instead of on every shadePixel call.
	t := triState{
		tex: tex, gu: gu, gv: gv, giw: giw, gz: gz,
		shade: shade, zfirst: r.cfg.ZBeforeTexture,
	}
	width := r.cfg.Width

	for yi := minY; yi < maxY; yi++ {
		py := float64(yi) + 0.5
		// Intersect the row with each half-plane to find the span of
		// covered pixel centres: a*x + b*py + c >= 0.
		lo, hi := 0.0, w
		skip := false
		for _, e := range edges {
			rhs := -(e.b*py + e.c)
			switch {
			case e.a > 0:
				if x := rhs / e.a; x > lo {
					lo = x
				}
			case e.a < 0:
				if x := rhs / e.a; x < hi {
					hi = x
				}
			default:
				if rhs > 0 { // row entirely outside
					skip = true
				}
			}
		}
		if skip || lo >= hi {
			continue
		}
		// Pixel centres x+0.5 in [lo, hi): left-closed keeps shared
		// edges from double-rasterizing.
		xStart := int(math.Ceil(lo - 0.5))
		xEnd := int(math.Ceil(hi - 0.5))
		if xStart < 0 {
			xStart = 0
		}
		if xEnd > width {
			xEnd = width
		}
		rowBase := yi * width
		for xi := xStart; xi < xEnd; xi++ {
			px := float64(xi) + 0.5
			r.shadePixel(&t, px, py, rowBase+xi)
		}
	}
}

// triState carries one triangle's interpolation state through the
// scanline loop, so shadePixel reads per-triangle invariants from one
// cache line instead of re-deriving them per pixel.
type triState struct {
	tex             *texture.Texture
	gu, gv, giw, gz gradient
	shade           float64
	zfirst          bool
}

// shadePixel runs the per-pixel pipeline: depth, texture sampling, write.
// idx is the framebuffer index yi*Width+xi, accumulated per row by the
// caller.
func (r *Rasterizer) shadePixel(t *triState, px, py float64, idx int) {
	z := float32(t.gz.at(px, py))
	pass := z <= r.depth[idx]

	if t.zfirst && !pass {
		return // occluded: no texel traffic, no pixel generated
	}
	r.pixels++

	iw := t.giw.at(px, py)
	if iw <= 0 {
		return // behind the eye; clipping should prevent this
	}
	wRecip := 1 / iw
	u := t.gu.at(px, py) * wRecip
	v := t.gv.at(px, py) * wRecip

	// Texture-space footprint of the pixel via exact derivatives of the
	// rational interpolant: d(f/g)/dx = (f'g - fg')/g^2.
	dudx := (t.gu.a - u*t.giw.a) * wRecip
	dvdx := (t.gv.a - v*t.giw.a) * wRecip
	dudy := (t.gu.b - u*t.giw.b) * wRecip
	dvdy := (t.gv.b - v*t.giw.b) * wRecip
	var l lod
	if r.color != nil {
		l = exactLOD(lambdaOf(dudx, dvdx, dudy, dvdy))
	} else {
		l = footprintLOD(dudx, dvdx, dudy, dvdy)
	}

	col := r.sampleAndEmit(t.tex, u, v, l)

	if pass {
		r.depth[idx] = z
		if r.color != nil {
			r.color[idx] = applyShade(col, t.shade)
		}
	}
}

// lod is a pixel's level of detail λ = log2 ρ, where ρ is the longer of
// its footprint's two axis lengths, in the forms sampling reads.
type lod struct {
	floor   int     // ⌊λ⌋, the finer trilinear level
	round   int     // λ rounded half away from zero: the point and bilinear level
	magnify bool    // λ ≤ 0
	frac    float64 // λ − ⌊λ⌋, the trilinear blend weight; only exactLOD sets it
}

// lambdaOf is λ = log2 max(|(dudx, dvdx)|, |(dudy, dvdy)|), or 0 for a
// zero footprint: the exact expression footprintLOD reproduces.
//
// texlint:hotpath
func lambdaOf(dudx, dvdx, dudy, dvdy float64) float64 {
	rho := maxf(math.Hypot(dudx, dvdx), math.Hypot(dudy, dvdy))
	if rho > 0 {
		return math.Log2(rho)
	}
	return 0
}

// exactLOD reduces an exact λ to every form sampling reads.
//
// texlint:hotpath
func exactLOD(lambda float64) lod {
	fl := math.Floor(lambda)
	return lod{
		floor:   int(fl),
		round:   int(math.Round(lambda)),
		magnify: lambda <= 0,
		frac:    lambda - fl,
	}
}

// footprintLOD is exactLOD(lambdaOf(...)) without the blend weight and
// mostly without the logarithm. ⌊λ⌋, round λ and λ ≤ 0 change only where
// ρ crosses 2^(k/2), that is where ρ² = max(dudx²+dvdx², dudy²+dvdy²)
// crosses a power of two, so away from those points they follow from
// ρ²'s binary exponent e alone: ρ² ∈ (2^e, 2^(e+1)) puts λ in
// (e/2, (e+1)/2), so ⌊λ⌋ = ⌊e/2⌋, round λ = ⌊(e+1)/2⌋, and λ ≤ 0
// exactly when e < 0. Near a crossing, math.Log2's own rounding decides
// the level, so when ρ² is within 2^-30 (relative) of a power of two, or
// zero, subnormal or not finite, it falls back to the exact expression.
//
// texlint:hotpath
func footprintLOD(dudx, dvdx, dudy, dvdy float64) lod {
	sx := dudx*dudx + dvdx*dvdx
	sy := dudy*dudy + dvdy*dvdy
	bits := math.Float64bits(maxf(sx, sy))
	exp := int(bits>>52) & 0x7FF
	top := bits >> 22 & (1<<30 - 1) // the 30 high mantissa bits
	// sx+sy is finite only if all four derivatives and both sums are.
	if !(sx+sy <= math.MaxFloat64) || exp == 0 || top == 0 || top == 1<<30-1 {
		return exactLOD(lambdaOf(dudx, dvdx, dudy, dvdy))
	}
	e := exp - 1023
	return lod{floor: e >> 1, round: (e + 1) >> 1, magnify: e < 0}
}

// sampleAndEmit performs the configured filtering: it emits every texel
// reference to the sink and returns the filtered colour (valid only when a
// framebuffer is attached; otherwise the value is unused).
func (r *Rasterizer) sampleAndEmit(tex *texture.Texture, u, v float64, l lod) texture.RGBA {
	switch r.cfg.Mode {
	case Point:
		m := tex.ClampLevel(l.round)
		return r.pointSample(tex, u, v, m)
	case Bilinear:
		m := tex.ClampLevel(l.round)
		return r.bilinearSample(tex, u, v, m)
	case Trilinear:
		if l.magnify {
			// Magnification: a single bilinear fetch at the base level.
			return r.bilinearSample(tex, u, v, 0)
		}
		m0 := tex.ClampLevel(l.floor)
		m1 := tex.ClampLevel(m0 + 1)
		c0 := r.bilinearSample(tex, u, v, m0)
		if m1 == m0 {
			return c0
		}
		c1 := r.bilinearSample(tex, u, v, m1)
		if r.color == nil {
			return c1
		}
		return lerpColor(c0, c1, l.frac)
	default:
		panic(fmt.Sprintf("raster: unknown sample mode %d", int(r.cfg.Mode)))
	}
}

// levelInv[m] holds the exact reciprocal 1/2^m. Multiplying by an exact
// power-of-two reciprocal is the same correctly-rounded IEEE operation as
// dividing by 2^m, so levelCoord avoids a per-texel divide without
// changing a single bit of the result.
var levelInv = computeLevelInv()

func computeLevelInv() [64]float64 {
	var t [64]float64
	t[0] = 1
	for m := 1; m < len(t); m++ {
		t[m] = t[m-1] * 0.5
	}
	return t
}

// levelCoord scales base-level texel coordinates to level m. It reads
// the levelInv table (written only at package init), so it carries no
// purity marker — the analyzer rejects package-level reads.
func levelCoord(c float64, m int) float64 {
	return c * levelInv[m]
}

// emit sends the texel (u, v) of level m, wrapped, to the sink.
func (r *Rasterizer) emit(tex *texture.Texture, u, v, m int) {
	if r.sink == nil {
		return
	}
	l := tex.Levels[m]
	r.sink.Texel(tex.ID, texture.WrapTexel(u, l.Width), texture.WrapTexel(v, l.Height), m)
}

// emitQuad sends the bilinear footprint whose first texel is (u, v) of
// level m: in one Quad call to a QuadSink, else as four texels in the
// same order.
func (r *Rasterizer) emitQuad(tex *texture.Texture, u, v, m int) {
	if r.quad == nil {
		r.emit(tex, u, v, m)
		r.emit(tex, u+1, v, m)
		r.emit(tex, u, v+1, m)
		r.emit(tex, u+1, v+1, m)
		return
	}
	l := tex.Levels[m]
	r.quad.Quad(tex.ID,
		texture.WrapTexel(u, l.Width), texture.WrapTexel(v, l.Height),
		texture.WrapTexel(u+1, l.Width), texture.WrapTexel(v+1, l.Height), m)
}

func (r *Rasterizer) pointSample(tex *texture.Texture, u, v float64, m int) texture.RGBA {
	ui := int(math.Floor(levelCoord(u, m)))
	vi := int(math.Floor(levelCoord(v, m)))
	r.emit(tex, ui, vi, m)
	if r.color == nil {
		return texture.RGBA{}
	}
	return tex.Sample(ui, vi, m)
}

func (r *Rasterizer) bilinearSample(tex *texture.Texture, u, v float64, m int) texture.RGBA {
	lu := levelCoord(u, m) - 0.5
	lv := levelCoord(v, m) - 0.5
	u0 := int(math.Floor(lu))
	v0 := int(math.Floor(lv))
	fu := lu - float64(u0)
	fv := lv - float64(v0)
	r.emitQuad(tex, u0, v0, m)
	if r.color == nil {
		return texture.RGBA{}
	}
	c00 := tex.Sample(u0, v0, m)
	c10 := tex.Sample(u0+1, v0, m)
	c01 := tex.Sample(u0, v0+1, m)
	c11 := tex.Sample(u0+1, v0+1, m)
	top := lerpColor(c00, c10, fu)
	bot := lerpColor(c01, c11, fu)
	return lerpColor(top, bot, fv)
}

// lerpColor blends two colours channel-wise by t.
func lerpColor(a, b texture.RGBA, t float64) texture.RGBA {
	mix := func(x, y uint8) uint8 {
		return uint8(float64(x) + (float64(y)-float64(x))*t)
	}
	return texture.RGBA{
		R: mix(a.R, b.R), G: mix(a.G, b.G), B: mix(a.B, b.B), A: mix(a.A, b.A),
	}
}

// applyShade scales the colour channels by the clamped shade factor.
func applyShade(c texture.RGBA, s float64) texture.RGBA {
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return texture.RGBA{
		R: uint8(float64(c.R) * s),
		G: uint8(float64(c.G) * s),
		B: uint8(float64(c.B) * s),
		A: c.A,
	}
}

// The min/max helpers use inlinable branches instead of math.Min/Max.
// For the non-NaN screen coordinates and footprint lengths they see, the
// results are identical; the branches inline where the math calls do not
// (they carry NaN and signed-zero handling the rasterizer never needs).

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max3(a, b, c float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

func maxf(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}
