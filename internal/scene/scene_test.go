package scene

import (
	"math"
	"testing"

	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

func testTexture() *texture.Texture {
	return texture.MustNew("t", 64, 64, texture.RGBA8888,
		texture.Solid{C: texture.RGBA{R: 200, G: 200, B: 200, A: 255}})
}

func TestMeshBounds(t *testing.T) {
	var m Mesh
	tex := testTexture()
	m.Quad(
		vecmath.Vec3{X: -1, Y: 0, Z: -1}, vecmath.Vec3{X: 1, Y: 0, Z: -1},
		vecmath.Vec3{X: 1, Y: 0, Z: 1}, vecmath.Vec3{X: -1, Y: 0, Z: 1},
		tex, 1, 1)
	c, r := m.Bounds()
	if c.Len() > 1e-9 {
		t.Errorf("centre = %v, want origin", c)
	}
	if math.Abs(r-math.Sqrt2) > 1e-9 {
		t.Errorf("radius = %v, want sqrt(2)", r)
	}
}

func TestMeshBoundsInvalidatedByAdd(t *testing.T) {
	var m Mesh
	tex := testTexture()
	m.Billboard(vecmath.Vec3{}, 1, 1, tex)
	_, r1 := m.Bounds()
	m.Billboard(vecmath.Vec3{X: 100}, 1, 1, tex)
	_, r2 := m.Bounds()
	if r2 <= r1 {
		t.Errorf("bounds not recomputed after Add: %v <= %v", r2, r1)
	}
}

func TestObjectWorldBounds(t *testing.T) {
	var m Mesh
	m.Billboard(vecmath.Vec3{}, 2, 2, testTexture())
	obj := NewObject("o", &m,
		vecmath.Translate(vecmath.Vec3{X: 10}).Mul(vecmath.ScaleUniform(3)))
	c, r := obj.WorldBounds()
	if math.Abs(c.X-10) > 3.1 { // centre scaled then translated
		t.Errorf("world centre = %v", c)
	}
	_, mr := m.Bounds()
	if math.Abs(r-3*mr) > 1e-9 {
		t.Errorf("world radius = %v, want %v", r, 3*mr)
	}
}

func TestPathEndpointsAndContinuity(t *testing.T) {
	p := Path{Points: []Waypoint{
		{Eye: vecmath.Vec3{X: 0}, Target: vecmath.Vec3{X: 1}},
		{Eye: vecmath.Vec3{X: 10}, Target: vecmath.Vec3{X: 11}},
		{Eye: vecmath.Vec3{X: 20}, Target: vecmath.Vec3{X: 21}},
	}}
	if got := p.At(0).Eye.X; got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := p.At(1).Eye.X; got != 20 {
		t.Errorf("At(1) = %v", got)
	}
	// Small dt must move the eye a small distance (smooth path).
	prev := p.At(0).Eye
	for i := 1; i <= 100; i++ {
		cur := p.At(float64(i) / 100).Eye
		if cur.Sub(prev).Len() > 1.5 {
			t.Fatalf("discontinuity at t=%v: step %v", float64(i)/100, cur.Sub(prev).Len())
		}
		prev = cur
	}
	// Monotone forward progress for collinear waypoints.
	if p.At(0.5).Eye.X <= p.At(0.25).Eye.X {
		t.Error("path not progressing")
	}
}

func TestPathDegenerateCases(t *testing.T) {
	var empty Path
	if got := empty.At(0.5); got.Eye == (vecmath.Vec3{}) {
		t.Error("empty path should return a non-degenerate eye")
	}
	one := Path{Points: []Waypoint{{Eye: vecmath.Vec3{X: 5}}}}
	if got := one.At(0.7).Eye.X; got != 5 {
		t.Errorf("single waypoint At = %v", got)
	}
	if got := one.At(-1).Eye.X; got != 5 {
		t.Errorf("clamped At(-1) = %v", got)
	}
}

func TestPathCameraAt(t *testing.T) {
	p := Path{Points: []Waypoint{
		{Eye: vecmath.Vec3{}, Target: vecmath.Vec3{Z: -1}},
		{Eye: vecmath.Vec3{X: 10}, Target: vecmath.Vec3{X: 10, Z: -1}},
	}}
	base := DefaultCamera(4.0 / 3)
	c0 := p.CameraAt(base, 0, 100)
	c99 := p.CameraAt(base, 99, 100)
	if c0.Eye.X != 0 || c99.Eye.X != 10 {
		t.Errorf("endpoint eyes: %v, %v", c0.Eye, c99.Eye)
	}
	if c0.FovY != base.FovY || c0.Near != base.Near {
		t.Error("projection parameters not preserved")
	}
	// Single-frame animation stays at t=0.
	if got := p.CameraAt(base, 0, 1).Eye.X; got != 0 {
		t.Errorf("single frame eye = %v", got)
	}
}

func renderOnce(t *testing.T, s *Scene, cam Camera, mode raster.SampleMode) (*raster.Rasterizer, FrameStats, int) {
	t.Helper()
	r := raster.MustNew(raster.Config{Width: 64, Height: 48, Mode: mode})
	texels := 0
	r.SetSink(raster.SinkFunc(func(tid texture.ID, u, v, m int) { texels++ }))
	p := NewPipeline(r)
	st := p.RenderFrame(s, cam)
	return r, st, texels
}

func frontScene() (*Scene, Camera) {
	s := NewScene()
	tex := s.Textures.Register(testTexture())
	var m Mesh
	m.Quad(
		vecmath.Vec3{X: -1, Y: -1, Z: 0}, vecmath.Vec3{X: 1, Y: -1, Z: 0},
		vecmath.Vec3{X: 1, Y: 1, Z: 0}, vecmath.Vec3{X: -1, Y: 1, Z: 0},
		tex, 1, 1)
	s.Add(NewObject("quad", &m, vecmath.Identity()))
	cam := DefaultCamera(64.0 / 48)
	cam.Eye = vecmath.Vec3{Z: 3}
	cam.Target = vecmath.Vec3{}
	return s, cam
}

func TestPipelineRendersVisibleObject(t *testing.T) {
	s, cam := frontScene()
	r, st, texels := renderOnce(t, s, cam, raster.Point)
	if st.ObjectsDrawn != 1 || st.ObjectsCulled != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.TrianglesDrawn != 2 {
		t.Errorf("TrianglesDrawn = %d, want 2", st.TrianglesDrawn)
	}
	if r.Pixels() == 0 || texels == 0 {
		t.Error("nothing rasterized")
	}
}

func TestPipelineCullsBehindCamera(t *testing.T) {
	s, cam := frontScene()
	cam.Target = vecmath.Vec3{Z: 6} // look away from the quad
	_, st, texels := renderOnce(t, s, cam, raster.Point)
	if st.ObjectsCulled != 1 || st.ObjectsDrawn != 0 {
		t.Errorf("stats = %+v", st)
	}
	if texels != 0 {
		t.Error("culled object produced texels")
	}
}

func TestPipelineClipsNearPlane(t *testing.T) {
	// A quad straddling the camera plane must be clipped, not dropped,
	// and must not crash the rasterizer with w <= 0 vertices.
	s := NewScene()
	tex := s.Textures.Register(testTexture())
	var m Mesh
	m.Quad(
		vecmath.Vec3{X: -5, Y: -1, Z: 5}, vecmath.Vec3{X: 5, Y: -1, Z: 5},
		vecmath.Vec3{X: 5, Y: -1, Z: -5}, vecmath.Vec3{X: -5, Y: -1, Z: -5},
		tex, 4, 4)
	s.Add(NewObject("floor", &m, vecmath.Identity()))
	cam := DefaultCamera(64.0 / 48)
	cam.Eye = vecmath.Vec3{Y: 0.5, Z: 0}
	cam.Target = vecmath.Vec3{Y: 0.2, Z: -5}
	r, st, _ := renderOnce(t, s, cam, raster.Point)
	if st.TrianglesClipped == 0 {
		t.Error("straddling geometry was not clipped")
	}
	if r.Pixels() == 0 {
		t.Error("clipped geometry rasterized nothing")
	}
}

func TestPipelineFullyOutsideTriangleDropped(t *testing.T) {
	// An object whose bounding sphere intersects the frustum but whose
	// triangles are all outside must draw zero triangles post-clip.
	s := NewScene()
	tex := s.Textures.Register(testTexture())
	var m Mesh
	// Two distant billboards flanking the view: sphere spans the view.
	m.Billboard(vecmath.Vec3{X: -50, Z: -5}, 1, 1, tex)
	m.Billboard(vecmath.Vec3{X: 50, Z: -5}, 1, 1, tex)
	s.Add(NewObject("flank", &m, vecmath.Identity()))
	cam := DefaultCamera(1)
	cam.Eye = vecmath.Vec3{Z: 0}
	cam.Target = vecmath.Vec3{Z: -1}
	_, st, texels := renderOnce(t, s, cam, raster.Point)
	if st.ObjectsDrawn != 1 {
		t.Errorf("object unexpectedly culled: %+v", st)
	}
	if st.TrianglesDrawn != 0 || texels != 0 {
		t.Errorf("outside triangles drawn: %+v, texels=%d", st, texels)
	}
}

func TestClipPolygonFullyInside(t *testing.T) {
	in := []clipVert{
		{pos: vecmath.Vec4{X: 0, Y: 0, Z: 0, W: 1}},
		{pos: vecmath.Vec4{X: 0.5, Y: 0, Z: 0, W: 1}},
		{pos: vecmath.Vec4{X: 0, Y: 0.5, Z: 0, W: 1}},
	}
	out, clipped := new(Pipeline).clipPolygon(in)
	if clipped {
		t.Error("fully inside polygon reported clipped")
	}
	if len(out) != 3 {
		t.Errorf("vertices = %d, want 3", len(out))
	}
}

func TestClipPolygonFullyOutside(t *testing.T) {
	in := []clipVert{
		{pos: vecmath.Vec4{X: 5, Y: 0, Z: 0, W: 1}},
		{pos: vecmath.Vec4{X: 6, Y: 0, Z: 0, W: 1}},
		{pos: vecmath.Vec4{X: 5, Y: 1, Z: 0, W: 1}},
	}
	out, _ := new(Pipeline).clipPolygon(in)
	if len(out) != 0 {
		t.Errorf("vertices = %d, want 0", len(out))
	}
}

func TestClipPolygonStraddling(t *testing.T) {
	// Triangle crossing the x = w plane gains a vertex.
	in := []clipVert{
		{pos: vecmath.Vec4{X: 0, Y: -0.5, Z: 0, W: 1}},
		{pos: vecmath.Vec4{X: 2, Y: 0, Z: 0, W: 1}},
		{pos: vecmath.Vec4{X: 0, Y: 0.5, Z: 0, W: 1}},
	}
	out, clipped := new(Pipeline).clipPolygon(in)
	if !clipped {
		t.Error("straddling polygon not reported clipped")
	}
	if len(out) != 4 {
		t.Errorf("vertices = %d, want 4", len(out))
	}
	for _, v := range out {
		if v.pos.X > v.pos.W+1e-9 {
			t.Errorf("vertex %v beyond clip plane", v.pos)
		}
	}
}

func TestClipPreservesUV(t *testing.T) {
	// An edge from u=0 at x=0 to u=1 at x=2 clipped at x=w=1 must yield
	// u=0.5 at the crossing.
	in := []clipVert{
		{pos: vecmath.Vec4{X: 0, Y: 0, Z: 0, W: 1}, uv: vecmath.Vec2{X: 0}},
		{pos: vecmath.Vec4{X: 2, Y: 0, Z: 0, W: 1}, uv: vecmath.Vec2{X: 1}},
		{pos: vecmath.Vec4{X: 0, Y: 0.5, Z: 0, W: 1}, uv: vecmath.Vec2{X: 0}},
	}
	out, _ := new(Pipeline).clipPolygon(in)
	foundMid := false
	for _, v := range out {
		if math.Abs(v.pos.X-1) < 1e-9 && math.Abs(v.uv.X-0.5) < 1e-9 {
			foundMid = true
		}
	}
	if !foundMid {
		t.Error("clipped vertex UV not interpolated to 0.5")
	}
}

func TestSceneTriangleCount(t *testing.T) {
	s := NewScene()
	tex := s.Textures.Register(testTexture())
	var m Mesh
	m.Box(vecmath.Vec3{}, vecmath.Vec3{X: 1, Y: 1, Z: 1},
		BoxTextures{Sides: tex, Top: tex, Bottom: tex})
	s.Add(NewObject("box", &m, vecmath.Identity()))
	// 4 walls + top + bottom = 6 quads = 12 triangles.
	if got := s.TriangleCount(); got != 12 {
		t.Errorf("TriangleCount = %d, want 12", got)
	}
}

func TestGroundGridGeometry(t *testing.T) {
	var m Mesh
	m.GroundGrid(0, 10, 10, 4, 4, testTexture(), 2, 2)
	if got := len(m.Tris); got != 32 {
		t.Errorf("triangles = %d, want 32", got)
	}
	// All vertices at y = 0 within the extent.
	for _, tri := range m.Tris {
		for _, p := range tri.P {
			if p.Y != 0 || math.Abs(p.X) > 10 || math.Abs(p.Z) > 10 {
				t.Fatalf("vertex %v outside grid", p)
			}
		}
	}
}

func TestBoxWithoutFaces(t *testing.T) {
	var m Mesh
	m.Box(vecmath.Vec3{}, vecmath.Vec3{X: 1, Y: 1, Z: 1},
		BoxTextures{Sides: testTexture()}) // no top/bottom
	if got := len(m.Tris); got != 8 {
		t.Errorf("triangles = %d, want 8 (4 walls only)", got)
	}
}

func TestRenderWithTrilinearProducesMoreTexels(t *testing.T) {
	s, cam := frontScene()
	_, _, point := renderOnce(t, s, cam, raster.Point)
	_, _, tri := renderOnce(t, s, cam, raster.Trilinear)
	if tri <= point {
		t.Errorf("trilinear texels (%d) <= point texels (%d)", tri, point)
	}
}
