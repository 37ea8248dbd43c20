package scene

import (
	"texcache/internal/raster"
	"texcache/internal/vecmath"
)

// FrameStats reports geometry-pipeline activity for one frame.
type FrameStats struct {
	ObjectsDrawn     int
	ObjectsCulled    int
	TrianglesIn      int
	TrianglesClipped int // triangles that required clipping
	TrianglesDrawn   int // post-clip triangles rasterized
}

// Pipeline runs object-space visibility culling, vertex transformation,
// homogeneous clipping and shading setup, submitting clip-space triangles
// to the rasterizer in object-then-triangle order (scanline rasterization
// order within each triangle is the rasterizer's concern).
type Pipeline struct {
	Raster *raster.Rasterizer
	// LightDir is the world-space directional light used for the flat
	// snapshot shading; it need not be normalized.
	LightDir vecmath.Vec3
	// Ambient is the shade floor in [0,1].
	Ambient float64
	// clipped holds the polygon clipPolygon returns.
	clipped [maxClipVerts]clipVert
}

// NewPipeline constructs a pipeline over a rasterizer with default
// lighting.
func NewPipeline(r *raster.Rasterizer) *Pipeline {
	return &Pipeline{
		Raster:   r,
		LightDir: vecmath.Vec3{X: 0.4, Y: 1, Z: 0.6},
		Ambient:  0.55,
	}
}

// RenderFrame clears the target and renders the scene from the camera,
// returning pipeline statistics. Texel references stream to the
// rasterizer's sink as a side effect.
func (p *Pipeline) RenderFrame(s *Scene, cam Camera) FrameStats {
	p.Raster.BeginFrame()
	return p.RenderInto(s, cam)
}

// RenderInto renders without clearing, allowing callers to compose scenes.
func (p *Pipeline) RenderInto(s *Scene, cam Camera) FrameStats {
	var st FrameStats
	pv := cam.ViewProj()
	planes := vecmath.FrustumPlanes(pv)
	light := p.LightDir.Normalize()

	for _, obj := range s.Objects {
		center, radius := obj.WorldBounds()
		if sphereOutside(planes, center, radius) {
			st.ObjectsCulled++
			continue
		}
		st.ObjectsDrawn++
		mvp := pv.Mul(obj.Transform)
		for _, tri := range obj.Mesh.Tris {
			st.TrianglesIn++
			p.drawTriangle(&st, obj, tri, mvp, light)
		}
	}
	return st
}

func sphereOutside(planes [6]vecmath.Plane, c vecmath.Vec3, r float64) bool {
	for _, pl := range planes {
		if pl.Dist(c) < -r {
			return true
		}
	}
	return false
}

// clipVert carries position and texture coordinates through clipping.
type clipVert struct {
	pos vecmath.Vec4
	uv  vecmath.Vec2
}

func (p *Pipeline) drawTriangle(st *FrameStats, obj *Object, tri Triangle,
	mvp vecmath.Mat4, light vecmath.Vec3) {

	var poly [maxClipVerts]clipVert
	n := 0
	for i := 0; i < 3; i++ {
		poly[n] = clipVert{
			pos: mvp.MulVec4(vecmath.V4(tri.P[i], 1)),
			uv:  tri.UV[i],
		}
		n++
	}

	// Flat shade from the world-space normal.
	e1 := obj.Transform.MulPoint(tri.P[1]).Sub(obj.Transform.MulPoint(tri.P[0]))
	e2 := obj.Transform.MulPoint(tri.P[2]).Sub(obj.Transform.MulPoint(tri.P[0]))
	normal := e1.Cross(e2).Normalize()
	diffuse := normal.Dot(light)
	if diffuse < 0 {
		diffuse = -diffuse // double-sided
	}
	shade := p.Ambient + (1-p.Ambient)*diffuse

	clipped, wasClipped := p.clipPolygon(poly[:n])
	if wasClipped {
		st.TrianglesClipped++
	}
	// Fan triangulation of the clipped polygon.
	for i := 2; i < len(clipped); i++ {
		st.TrianglesDrawn++
		p.Raster.DrawTriangle(tri.Tex,
			raster.Vertex{Pos: clipped[0].pos, UV: clipped[0].uv},
			raster.Vertex{Pos: clipped[i-1].pos, UV: clipped[i-1].uv},
			raster.Vertex{Pos: clipped[i].pos, UV: clipped[i].uv},
			shade)
	}
}

// maxClipVerts bounds the polygon size: clipping a triangle against six
// planes adds at most one vertex per plane.
const maxClipVerts = 9

// clipPlanes enumerates the six homogeneous half-space tests
// -w <= x,y,z <= w as dot products with (x, y, z, w).
var clipPlanes = [6]vecmath.Vec4{
	{X: 1, W: 1},  // x >= -w
	{X: -1, W: 1}, // x <= w
	{Y: 1, W: 1},  // y >= -w
	{Y: -1, W: 1}, // y <= w
	{Z: 1, W: 1},  // z >= -w (near)
	{Z: -1, W: 1}, // z <= w (far)
}

// clipPolygon clips the polygon against the view frustum in homogeneous
// clip space (Sutherland-Hodgman). It reports whether any clipping
// occurred. The returned slice is p.clipped, so it does not survive the
// next call: callers consume it immediately.
func (p *Pipeline) clipPolygon(in []clipVert) ([]clipVert, bool) {
	var bufA, bufB [maxClipVerts]clipVert
	cur := bufA[:0]
	cur = append(cur, in...)
	next := bufB[:0]
	clippedAny := false

	for _, plane := range clipPlanes {
		if len(cur) == 0 {
			break
		}
		next = next[:0]
		prev := cur[len(cur)-1]
		prevDist := plane.Dot(prev.pos)
		for _, v := range cur {
			dist := plane.Dot(v.pos)
			if dist >= 0 {
				if prevDist < 0 {
					next = append(next, intersect(prev, v, prevDist, dist))
					clippedAny = true
				}
				next = append(next, v)
			} else if prevDist >= 0 {
				next = append(next, intersect(prev, v, prevDist, dist))
				clippedAny = true
			}
			prev, prevDist = v, dist
		}
		cur, next = next, cur
	}
	return p.clipped[:copy(p.clipped[:], cur)], clippedAny
}

// intersect interpolates the crossing point where the edge a-b meets the
// plane, given signed distances da and db (da and db have opposite signs).
func intersect(a, b clipVert, da, db float64) clipVert {
	t := da / (da - db)
	return clipVert{
		pos: a.pos.Lerp(b.pos, t),
		uv:  a.uv.Lerp(b.uv, t),
	}
}
