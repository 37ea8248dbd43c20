// Quickstart: build a small textured scene with the scene API, render it
// once and simulate that one reference stream through the pull
// architecture and through two-level texture caching side by side, and
// print the bandwidth the L2 cache saves.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
	"texcache/internal/workload"
)

func main() {
	// A scene is a texture registry plus textured objects.
	s := scene.NewScene()
	brick := s.Textures.Register(texture.MustNew("brick", 256, 256, texture.RGB888,
		texture.Brick{
			Brick:  texture.RGBA{R: 160, G: 70, B: 50, A: 255},
			Mortar: texture.RGBA{R: 210, G: 205, B: 195, A: 255},
			Rows:   12,
		}))
	ground := s.Textures.Register(texture.MustNew("ground", 512, 512, texture.RGB565,
		texture.Checker{
			A: texture.RGBA{R: 120, G: 140, B: 110, A: 255},
			B: texture.RGBA{R: 100, G: 120, B: 95, A: 255},
			N: 16,
		}))

	floor := &scene.Mesh{}
	floor.GroundGrid(0, 50, 50, 4, 4, ground, 4, 4)
	s.Add(scene.NewObject("floor", floor, vecmath.Identity()))

	for i := 0; i < 6; i++ {
		tower := &scene.Mesh{}
		tower.Box(
			vecmath.Vec3{X: -3, Y: 0, Z: -3},
			vecmath.Vec3{X: 3, Y: 8 + float64(i), Z: 3},
			scene.BoxTextures{Sides: brick, Top: brick, SideRepeatU: 2, SideRepeatV: 3})
		s.Add(scene.NewObject(fmt.Sprintf("tower-%d", i), tower,
			vecmath.Translate(vecmath.Vec3{X: float64(i%3)*15 - 15, Z: float64(i/3)*15 - 8})))
	}

	// A workload is a scene plus a scripted camera path.
	w := &workload.Workload{
		Name:  "quickstart",
		Scene: s,
		Path: scene.Path{Points: []scene.Waypoint{
			{Eye: vecmath.Vec3{X: -30, Y: 5, Z: 40}, Target: vecmath.Vec3{Y: 4}},
			{Eye: vecmath.Vec3{X: 0, Y: 6, Z: 35}, Target: vecmath.Vec3{Y: 4}},
			{Eye: vecmath.Vec3{X: 30, Y: 5, Z: 40}, Target: vecmath.Vec3{Y: 4}},
		}},
		Frames: 60,
		Up:     vecmath.Vec3{Y: 1},
	}

	render := core.Config{
		Width: 512, Height: 384,
		Frames: 60,
		Mode:   raster.Trilinear,
	}
	specs := []core.CacheSpec{
		// Pull architecture: L1 only, every miss downloads from host memory.
		{Name: "pull", L1Bytes: 2 * 1024},
		// Proposed architecture: a 2 MB L2 texture cache in local memory.
		{Name: "l2-2m", L1Bytes: 2 * 1024, L2: &cache.L2Config{
			SizeBytes: 2 << 20,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		}},
	}
	// One render feeds every spec: both see the identical texel stream.
	cmp, err := core.RunComparison(w, render, specs)
	if err != nil {
		log.Fatal(err)
	}
	pull, l2 := cmp.Results[0], cmp.Results[1]

	fmt.Printf("L1 hit rate:              %.2f%%\n", 100*pull.Totals.L1.HitRate())
	fmt.Printf("pull host bandwidth:      %.3f MB/frame\n", pull.AvgHostMBPerFrame())
	fmt.Printf("L2 host bandwidth:        %.3f MB/frame\n", l2.AvgHostMBPerFrame())
	fmt.Printf("L2 full hit rate:         %.2f%% of L1 misses\n",
		100*l2.Totals.L2.FullHitRate())
	if l2h := l2.AvgHostMBPerFrame(); l2h > 0 {
		fmt.Printf("bandwidth saving:         %.1fx\n", pull.AvgHostMBPerFrame()/l2h)
	}
}
