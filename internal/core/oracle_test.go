package core

import (
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/stats"
	"texcache/internal/workload"
)

// Oracle simulates workload w under cfg alone: one unshared hierarchy,
// driven reference by reference through addrSink, with any working-set
// collector taking the stream texel by texel. It shares, chains, filters,
// batches and pipelines nothing, so it is the reference RunComparison is
// checked against; tests call it only to compare the engine or
// ReplayTrace with it, and to drive Hierarchy.Access under texsan.
func Oracle(w *workload.Workload, cfg Config) (*Results, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = w.Frames
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := w.Scene.Textures
	rast, err := raster.New(raster.Config{
		Width: cfg.Width, Height: cfg.Height,
		Mode:           cfg.Mode,
		ZBeforeTexture: cfg.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	hier, sink, err := buildHierarchy(set, cfg)
	if err != nil {
		return nil, err
	}
	var collect *stats.Collector
	if len(cfg.StatLayouts) > 0 {
		if collect, err = stats.NewCollector(set, cfg.StatLayouts...); err != nil {
			return nil, err
		}
		sink.collect = collect
	}
	rast.SetSink(sink)
	pipeline := scene.NewPipeline(rast)

	res := &Results{
		Workload: w.Name,
		Config:   cfg,
		Frames:   make([]FrameResult, 0, cfg.Frames),
	}
	aspect := float64(cfg.Width) / float64(cfg.Height)
	prev := hier.Counters()
	for f := 0; f < cfg.Frames; f++ {
		cam := w.Camera(aspect, f, cfg.Frames)
		if collect != nil {
			collect.BeginFrame()
		}
		pst := pipeline.RenderFrame(w.Scene, cam)
		fr := FrameResult{
			Pipeline: pst,
			Pixels:   rast.Pixels(),
		}
		if collect != nil {
			collect.AddPixels(rast.Pixels())
			sf := collect.EndFrame()
			fr.Stats = &sf
		}
		cur := hier.Counters()
		fr.Counters = cur.Sub(prev)
		prev = cur
		res.Frames = append(res.Frames, fr)
	}
	res.Totals = prev
	if collect != nil {
		sum := stats.Summarize(collect.Frames(), int64(cfg.Width)*int64(cfg.Height))
		res.Summary = &sum
	}
	return res, nil
}
