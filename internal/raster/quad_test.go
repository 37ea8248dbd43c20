package raster

import (
	"fmt"
	"reflect"
	"testing"

	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// quadSink is a QuadSink recording each footprint as its four texels in
// Quad's order, and how many footprints arrived whole.
type quadSink struct {
	collectSink
	quads int
}

func (s *quadSink) Quad(tid texture.ID, u0, v0, u1, v1, m int) {
	s.quads++
	s.Texel(tid, u0, v0, m)
	s.Texel(tid, u1, v0, m)
	s.Texel(tid, u0, v1, m)
	s.Texel(tid, u1, v1, m)
}

// TestQuadRouteMatchesTexelRoute pins the rasterizer's two routes. Under
// every filter, with and without a framebuffer, a QuadSink's stream with
// each footprint expanded in order equals the stream a plain Sink gets
// from the same triangles; point sampling never calls Quad, and bilinear
// and trilinear send every texel through it. The sinks are swapped on
// one rasterizer, so a plain sink set after a QuadSink must receive the
// stream itself, and SetSink(nil) must discard it.
func TestQuadRouteMatchesTexelRoute(t *testing.T) {
	tx := tex(t, 64, 64)
	mk := func(x, y, w, u, v float64) Vertex {
		return Vertex{Pos: vecmath.Vec4{X: x * w, Y: y * w, Z: 0, W: w},
			UV: vecmath.Vec2{X: u, Y: v}}
	}
	// A plane receding from w = 1 to w = 8 with UVs wrapping seven
	// times: magnified at the near edge, several MIP levels further up,
	// and footprints across the texture's wrap edges.
	bl, br := mk(-1, -1, 1, -3, 4), mk(1, -1, 1, 4, 4)
	tl, tr := mk(-1, 1, 8, -3, -3), mk(1, 1, 8, 4, -3)
	tris := [2][3]Vertex{{tl, bl, br}, {tl, br, tr}}

	for _, mode := range []SampleMode{Point, Bilinear, Trilinear} {
		for _, fb := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/framebuffer=%v", mode, fb), func(t *testing.T) {
				r := MustNew(Config{Width: 48, Height: 40, Mode: mode, Framebuffer: fb})
				draw := func(s Sink) {
					r.SetSink(s)
					r.BeginFrame()
					for _, tri := range tris {
						r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
					}
				}
				var quad quadSink
				var plain collectSink
				draw(&quad)
				draw(&plain)
				nq, np := len(quad.refs), len(plain.refs)
				draw(nil)

				if np == 0 {
					t.Fatal("no texels emitted")
				}
				if !reflect.DeepEqual(quad.refs, plain.refs) {
					t.Errorf("quad route: %d texels differ from the texel route's %d", nq, np)
				}
				switch {
				case mode == Point && quad.quads != 0:
					t.Errorf("point sampling called Quad %d times", quad.quads)
				case mode != Point && 4*quad.quads != np:
					t.Errorf("Quad called %d times for %d texels, want one per footprint", quad.quads, np)
				}
				if len(quad.refs) != nq || len(plain.refs) != np {
					t.Errorf("SetSink(nil) delivered %d texels", len(quad.refs)-nq+len(plain.refs)-np)
				}
			})
		}
	}
}
