package raster_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// digestSink hashes the texel stream it receives, each reference as its
// (tid, u, v, m) in four little-endian 32-bit words.
type digestSink struct {
	h   hash.Hash64
	buf []byte
}

// Texel implements raster.Sink.
func (s *digestSink) Texel(tid texture.ID, u, v, m int) {
	s.buf = s.buf[:0]
	for _, x := range [4]int{int(tid), u, v, m} {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(x))
	}
	s.h.Write(s.buf)
}

// quadDigestSink is a raster.QuadSink whose stream, each footprint
// expanded in Quad's order, is hashed as a digestSink hashes its texels.
type quadDigestSink struct{ digestSink }

// Quad implements raster.QuadSink.
func (s *quadDigestSink) Quad(tid texture.ID, u0, v0, u1, v1, m int) {
	s.Texel(tid, u0, v0, m)
	s.Texel(tid, u1, v0, m)
	s.Texel(tid, u0, v1, m)
	s.Texel(tid, u1, v1, m)
}

// streamGolden is what one rasterizer setting emits over the golden
// frames: the FNV-64a digest of the texel stream, the textured pixel
// count, and the FNV-64a digest of each frame's framebuffer bytes (0
// without a framebuffer).
type streamGolden struct {
	stream uint64
	pixels int64
	color  uint64
}

// TestRasterStreamGolden pins the rasterizer's output under every sample
// mode, with and without z-before-texture and a framebuffer, into a
// QuadSink and into a plain Sink: the texel stream, the pixel count and
// the framebuffer of three small frames of Village and three of City,
// spread over each animation. Both sinks must see the same stream. The
// constants were captured before the row loop was split into two
// passes, which must not move a single texel, pixel or colour.
func TestRasterStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds Village and City in -short mode")
	}
	const width, height = 96, 72
	works := []*workload.Workload{workload.Village(), workload.City()}
	type key struct {
		mode   raster.SampleMode
		zfirst bool
		fb     bool
	}
	want := map[key]streamGolden{
		{raster.Point, false, false}:     {0xab47e3955b082142, 123703, 0x0},
		{raster.Point, false, true}:      {0xab47e3955b082142, 123703, 0xe6676ec90de03744},
		{raster.Point, true, false}:      {0xc4d654beb1c68bfc, 70739, 0x0},
		{raster.Point, true, true}:       {0xc4d654beb1c68bfc, 70739, 0xe6676ec90de03744},
		{raster.Bilinear, false, false}:  {0xa0ad9b3afb16e9c5, 123703, 0x0},
		{raster.Bilinear, false, true}:   {0xa0ad9b3afb16e9c5, 123703, 0xf54101bea6ad16e8},
		{raster.Bilinear, true, false}:   {0x56510e426dd6b525, 70739, 0x0},
		{raster.Bilinear, true, true}:    {0x56510e426dd6b525, 70739, 0xf54101bea6ad16e8},
		{raster.Trilinear, false, false}: {0x4bc4657948716045, 123703, 0x0},
		{raster.Trilinear, false, true}:  {0x4bc4657948716045, 123703, 0x61480991c4464153},
		{raster.Trilinear, true, false}:  {0x76943ad0d72b4365, 70739, 0x0},
		{raster.Trilinear, true, true}:   {0x76943ad0d72b4365, 70739, 0x61480991c4464153},
	}
	for _, mode := range []raster.SampleMode{raster.Point, raster.Bilinear, raster.Trilinear} {
		for _, zfirst := range []bool{false, true} {
			for _, fb := range []bool{false, true} {
				k := key{mode, zfirst, fb}
				for _, quad := range []bool{false, true} {
					name := fmt.Sprintf("%v/zfirst=%v/framebuffer=%v/quad=%v", mode, zfirst, fb, quad)
					t.Run(name, func(t *testing.T) {
						r := raster.MustNew(raster.Config{
							Width: width, Height: height, Mode: mode,
							ZBeforeTexture: zfirst, Framebuffer: fb,
						})
						qs := &quadDigestSink{digestSink{h: fnv.New64a()}}
						ds := &qs.digestSink
						if quad {
							r.SetSink(qs)
						} else {
							r.SetSink(ds)
						}
						var got streamGolden
						color := fnv.New64a()
						p := scene.NewPipeline(r)
						for _, w := range works {
							for i := 0; i < 3; i++ {
								f := i * w.Frames / 3
								p.RenderFrame(w.Scene, w.Camera(float64(width)/height, f, w.Frames))
								got.pixels += r.Pixels()
								for _, c := range r.Color() {
									color.Write([]byte{c.R, c.G, c.B, c.A})
								}
							}
						}
						got.stream = ds.h.Sum64()
						if fb {
							got.color = color.Sum64()
						}
						if got.pixels == 0 {
							t.Fatal("no pixels rasterized")
						}
						if got != want[k] {
							t.Errorf("got {%#x, %d, %#x}, want {%#x, %d, %#x}",
								got.stream, got.pixels, got.color, want[k].stream, want[k].pixels, want[k].color)
						}
					})
				}
			}
		}
	}
}
