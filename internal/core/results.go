package core

import (
	"texcache/internal/cache"
	"texcache/internal/scene"
	"texcache/internal/stats"
)

// FrameResult records one simulated frame.
type FrameResult struct {
	// Pipeline reports geometry activity.
	Pipeline scene.FrameStats
	// Pixels is the textured pixels rasterized this frame.
	Pixels int64
	// Counters is the cache activity of this frame alone.
	Counters cache.Counters
	// Stats carries working-set statistics when enabled.
	Stats *stats.Frame
}

// Results aggregates a run.
type Results struct {
	Workload string
	Config   Config
	Frames   []FrameResult
	// Totals is the cache activity over the whole animation.
	Totals cache.Counters
	// Summary aggregates working-set statistics when enabled.
	Summary *stats.Summary
	// ModelFrames is the frame count covered by an analytically modeled
	// result (the -fast sweep): such Results carry whole-run Totals but
	// no per-frame breakdown, so Frames stays empty and ModelFrames
	// records the denominator for per-frame averages.
	ModelFrames int
}

// AvgHostMBPerFrame returns the mean host (AGP/system memory) download
// bandwidth in MB per frame, the quantity of Table 3.
func (r *Results) AvgHostMBPerFrame() float64 {
	frames := len(r.Frames)
	if frames == 0 {
		frames = r.ModelFrames
	}
	if frames == 0 {
		return 0
	}
	return float64(r.Totals.HostBytes) / float64(frames) / (1 << 20)
}
