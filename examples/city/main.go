// City: the paper's fly-through workload, used here to reproduce the §4
// working-set methodology — measure depth complexity and block utilisation
// with point sampling, then check the analytic expected-working-set model
// W = R*d*4/util against the measured per-frame block footprint (Table 1).
//
// Run with: go run ./examples/city
package main

import (
	"fmt"
	"log"

	"texcache/internal/core"
	"texcache/internal/model"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

func main() {
	w := workload.City()
	fmt.Printf("City: %d objects, %d textures (one facade per building), %.1f MB host\n",
		len(w.Scene.Objects), w.Scene.Textures.Len(),
		float64(w.Scene.Textures.HostBytes())/(1<<20))

	layout := texture.TileLayout{L2Size: 16, L1Size: 4}
	render := core.Config{
		Width: 512, Height: 384,
		Frames:      100,
		Mode:        raster.Point, // the paper's §4 methodology
		StatLayouts: []texture.TileLayout{layout},
	}
	cmp, err := core.RunComparison(w, render, []core.CacheSpec{{Name: "pull-2k", L1Bytes: 2 << 10}})
	if err != nil {
		log.Fatal(err)
	}
	s := cmp.Results[0].Summary
	ls, _ := s.Layout(layout)

	expected := model.ExpectedWorkingSet(s.ScreenPixels, s.DepthComplexity, ls.Utilization)
	fmt.Printf("\ndepth complexity d        = %.2f   (paper: 1.9)\n", s.DepthComplexity)
	fmt.Printf("block utilization         = %.2f   (paper: 7.8)\n", ls.Utilization)
	fmt.Printf("expected working set W    = %.2f MB\n", expected/(1<<20))
	fmt.Printf("measured blocks per frame = %.2f MB (avg), %.2f MB (max)\n",
		ls.AvgBytes/(1<<20), float64(ls.MaxBytes)/(1<<20))
	fmt.Printf("new blocks per frame      = %.0f KB (%.1f%% of the working set)\n",
		ls.AvgNewBytes/1024, 100*ls.AvgNewBlocks/ls.AvgBlocks)
	fmt.Printf("min push-arch memory      = %.2f MB (whole textures touched)\n",
		s.AvgPushBytes/(1<<20))
	fmt.Printf("\nThe model W tracks the measured per-frame footprint, and both sit far\n")
	fmt.Printf("below the push architecture's requirement — the Figure 4 result.\n")
}
