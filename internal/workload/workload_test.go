package workload

import (
	"strings"
	"testing"

	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
)

func TestVillageDeterministic(t *testing.T) {
	a := Village()
	b := Village()
	if a.Scene.TriangleCount() != b.Scene.TriangleCount() {
		t.Error("triangle counts differ between builds")
	}
	if a.Scene.Textures.HostBytes() != b.Scene.Textures.HostBytes() {
		t.Error("texture bytes differ between builds")
	}
	if len(a.Scene.Objects) != len(b.Scene.Objects) {
		t.Error("object counts differ between builds")
	}
	// Same object transforms.
	for i := range a.Scene.Objects {
		if a.Scene.Objects[i].Transform != b.Scene.Objects[i].Transform {
			t.Fatalf("object %d transform differs", i)
		}
	}
}

func TestCityDeterministic(t *testing.T) {
	a := City()
	b := City()
	if a.Scene.TriangleCount() != b.Scene.TriangleCount() ||
		a.Scene.Textures.Len() != b.Scene.Textures.Len() {
		t.Error("city builds differ")
	}
}

func TestVillageShape(t *testing.T) {
	w := Village()
	if w.Name != "village" || w.Frames != VillageFrames {
		t.Errorf("identity = %q/%d", w.Name, w.Frames)
	}
	// The Village's defining property: a small shared texture pool.
	if n := w.Scene.Textures.Len(); n > 20 {
		t.Errorf("textures = %d, want a small shared pool (<= 20)", n)
	}
	// Host texture residency in the paper's Figure 4 band (~10-20 MB).
	mb := float64(w.Scene.Textures.HostBytes()) / (1 << 20)
	if mb < 8 || mb > 25 {
		t.Errorf("host texture MB = %.1f, want 8..25", mb)
	}
	if len(w.Scene.Objects) < 50 {
		t.Errorf("objects = %d, want a town's worth", len(w.Scene.Objects))
	}
}

func TestCityShape(t *testing.T) {
	w := City()
	if w.Name != "city" || w.Frames != CityFrames {
		t.Errorf("identity = %q/%d", w.Name, w.Frames)
	}
	// The City's defining property: per-building textures.
	if n := w.Scene.Textures.Len(); n < 80 {
		t.Errorf("textures = %d, want one per building (>= 80)", n)
	}
	mb := float64(w.Scene.Textures.HostBytes()) / (1 << 20)
	if mb < 6 || mb > 25 {
		t.Errorf("host texture MB = %.1f, want 6..25", mb)
	}
}

func TestCameraPathsAboveGround(t *testing.T) {
	for _, w := range []*Workload{Village(), City()} {
		for f := 0; f <= 100; f++ {
			cam := w.Camera(4.0/3, f, 101)
			if cam.Eye.Y <= 0 {
				t.Errorf("%s frame %d: eye below ground (%v)", w.Name, f, cam.Eye)
			}
			if cam.Eye.Sub(cam.Target).Len() < 1e-6 {
				t.Errorf("%s frame %d: degenerate look-at", w.Name, f)
			}
		}
	}
}

func TestCameraDefaultsToFullFrameCount(t *testing.T) {
	w := Village()
	c1 := w.Camera(1, 0, 0) // n <= 0 falls back to w.Frames
	c2 := w.Camera(1, 0, w.Frames)
	if c1.Eye != c2.Eye {
		t.Error("Camera with n=0 does not use the workload frame count")
	}
}

// measure renders a few frames and returns depth complexity and texel refs.
func measure(t *testing.T, w *Workload, frames int) (d float64, texels int64) {
	t.Helper()
	const width, height = 256, 192
	r := raster.MustNew(raster.Config{Width: width, Height: height, Mode: raster.Point})
	r.SetSink(raster.SinkFunc(func(tid texture.ID, u, v, m int) { texels++ }))
	p := scene.NewPipeline(r)
	var pixels int64
	for f := 0; f < frames; f++ {
		p.RenderFrame(w.Scene, w.Camera(float64(width)/height, f*40, w.Frames))
		pixels += r.Pixels()
	}
	return float64(pixels) / float64(frames) / (width * height), texels
}

func TestVillageDepthComplexityBand(t *testing.T) {
	d, texels := measure(t, Village(), 8)
	// Paper: d ~= 3.8. Allow a generous band; the property that matters
	// downstream is substantial overdraw.
	if d < 2.2 || d > 5.0 {
		t.Errorf("village depth complexity = %.2f, want ~3.8 (band 2.2..5.0)", d)
	}
	if texels == 0 {
		t.Fatal("no texels emitted")
	}
}

func TestCityDepthComplexityBand(t *testing.T) {
	d, _ := measure(t, City(), 8)
	// Paper: d ~= 1.9; the property that matters is low-but-above-1.
	if d < 1.3 || d > 3.0 {
		t.Errorf("city depth complexity = %.2f, want ~1.9 (band 1.3..3.0)", d)
	}
}

func TestVillageReusesTexturesBetweenObjects(t *testing.T) {
	w := Village()
	// Count objects per texture: the Village must share wall textures
	// across many houses.
	users := map[texture.ID]map[string]bool{}
	for _, o := range w.Scene.Objects {
		for _, tri := range o.Mesh.Tris {
			m, ok := users[tri.Tex.ID]
			if !ok {
				m = map[string]bool{}
				users[tri.Tex.ID] = m
			}
			m[o.Name] = true
		}
	}
	shared := 0
	for _, objs := range users {
		if len(objs) >= 5 {
			shared++
		}
	}
	if shared < 3 {
		t.Errorf("textures shared by >= 5 objects: %d, want >= 3", shared)
	}
}

func TestCityFacadesNotShared(t *testing.T) {
	w := City()
	users := map[texture.ID]map[string]bool{}
	facades := 0
	for _, o := range w.Scene.Objects {
		for _, tri := range o.Mesh.Tris {
			m, ok := users[tri.Tex.ID]
			if !ok {
				m = map[string]bool{}
				users[tri.Tex.ID] = m
			}
			m[o.Name] = true
		}
	}
	for id, objs := range users {
		name := w.Scene.Textures.ByID(id).Name
		if len(name) > 6 && name[:6] == "facade" {
			facades++
			if len(objs) != 1 {
				t.Errorf("facade %s used by %d objects, want 1", name, len(objs))
			}
		}
	}
	if facades < 80 {
		t.Errorf("facades = %d, want >= 80", facades)
	}
}

func TestRNGDeterministicAndBounded(t *testing.T) {
	a := newRNG(42)
	b := newRNG(42)
	for i := 0; i < 1000; i++ {
		av, bv := a.intn(17), b.intn(17)
		if av != bv {
			t.Fatal("rng not deterministic")
		}
		if av < 0 || av >= 17 {
			t.Fatalf("intn out of range: %d", av)
		}
		f := a.rangef(-2, 3)
		b.rangef(-2, 3)
		if f < -2 || f >= 3 {
			t.Fatalf("rangef out of range: %v", f)
		}
	}
}

func TestWorkloadCameraUsesPathEndpoints(t *testing.T) {
	w := City()
	first := w.Camera(1, 0, 100).Eye
	last := w.Camera(1, 99, 100).Eye
	if first.Sub(last).Len() < 50 {
		t.Error("fly-through endpoints too close; path may be degenerate")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"village", "city", "mall"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != name {
			t.Errorf("ByName(%q) built %q", name, w.Name)
		}
	}
	w, err := ByName("Village")
	if w != nil || err == nil || !strings.Contains(err.Error(), `"Village"; valid workloads: village, city, mall`) {
		t.Errorf("ByName(%q) = %v, %v; want an error listing the workloads", "Village", w, err)
	}
}
