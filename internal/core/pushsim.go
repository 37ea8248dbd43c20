package core

import (
	"texcache/internal/push"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// PushFrame records one frame of push-architecture simulation.
type PushFrame struct {
	// DownloadBytes is host->local traffic this frame (whole textures).
	DownloadBytes int64
	// Evictions and Compactions count manager activity this frame.
	Evictions   int64
	Compactions int64
	// ResidentBytes is local memory in use at frame end.
	ResidentBytes int64
}

// PushResults aggregates a push-architecture run.
type PushResults struct {
	Workload string
	Config   push.Config
	Frames   []PushFrame
	Totals   push.Stats
}

// AvgDownloadMBPerFrame returns mean host bandwidth in MB per frame.
func (r *PushResults) AvgDownloadMBPerFrame() float64 {
	if len(r.Frames) == 0 {
		return 0
	}
	return float64(r.Totals.DownloadBytes) / float64(len(r.Frames)) / (1 << 20)
}

// RunPush simulates the push architecture: the animation renders normally,
// and the first texel of each texture per frame forces the whole texture
// resident in the fixed local memory (LRU whole-texture replacement with
// compaction). The returned download traffic is what the application's
// texture manager would move across the bus — the paper's Figure 1a
// baseline measured rather than bounded.
func RunPush(w *workload.Workload, render Config, pushCfg push.Config) (*PushResults, error) {
	if render.Frames <= 0 {
		render.Frames = w.Frames
	}
	if err := render.validateRender(); err != nil {
		return nil, err
	}
	mgr, err := push.NewManager(pushCfg, w.Scene.Textures)
	if err != nil {
		return nil, err
	}
	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	// Touch is cheap for resident textures (one array lookup), so it is
	// called per texel, exactly when the accelerator would sample.
	rast.SetSink(raster.SinkFunc(func(tid texture.ID, u, v, m int) {
		mgr.Touch(tid)
	}))
	pipeline := scene.NewPipeline(rast)

	res := &PushResults{
		Workload: w.Name,
		Config:   pushCfg,
		Frames:   make([]PushFrame, 0, render.Frames),
	}
	aspect := float64(render.Width) / float64(render.Height)
	var prev push.Stats
	for f := 0; f < render.Frames; f++ {
		pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
		cur := mgr.Stats()
		res.Frames = append(res.Frames, PushFrame{
			DownloadBytes: cur.DownloadBytes - prev.DownloadBytes,
			Evictions:     cur.Evictions - prev.Evictions,
			Compactions:   cur.Compactions - prev.Compactions,
			ResidentBytes: mgr.UsedBytes(),
		})
		prev = cur
	}
	res.Totals = mgr.Stats()
	return res, nil
}
