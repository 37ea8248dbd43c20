package core_test

import (
	"testing"

	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/workload"
)

// BenchmarkExactStages times the exact engine's two stages apart and
// together on the bench-scale 13-spec Village sweep, each in ns per
// texel reference: "render" is the render stage (rasterizer, stream
// filter and the ring's hand-offs) against a consumer that only returns
// blocks, "cache" the cache stage taking the blocks one render handed
// over, and "pipelined" the whole engine, RunComparison. The pipelined
// time is about the longer stage's, so the three say which stage bounds
// a run. Run with -count n, the three alternate n times in one process.
func BenchmarkExactStages(b *testing.B) {
	scale := experiments.Bench()
	render := core.Config{
		Width:  scale.Width,
		Height: scale.Height,
		Frames: scale.VillageFrames,
		Mode:   raster.Trilinear,
	}
	specs := experiments.SweepSpecs()
	w := workload.Village()
	cmp, err := core.RunComparison(w, render, specs)
	if err != nil {
		b.Fatal(err)
	}
	refs := float64(cmp.Results[0].Totals.L1.Accesses)
	st := core.NewStages(w, render, specs)
	if err := st.Render(true); err != nil {
		b.Fatal(err)
	}
	perRef := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/refs, "ns/ref")
	}

	b.Run("render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := st.Render(false); err != nil {
				b.Fatal(err)
			}
		}
		perRef(b)
	})
	b.Run("cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			take, err := st.CacheStage()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			take()
		}
		perRef(b)
	})
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunComparison(w, render, specs); err != nil {
				b.Fatal(err)
			}
		}
		perRef(b)
	})
}
