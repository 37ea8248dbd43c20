// Package core is the study's simulator: it drives a workload's scripted
// animation through the geometry pipeline and rasterizer once, translates
// each texel reference to the hierarchical virtual texture address, and
// presents that one stream to every cache configuration of a comparison
// (L1 only for the pull architecture, L1+L2 for the proposed
// architecture), gathering per-frame transaction counts, bandwidths, and
// working-set statistics. RunComparison is its one engine: a single
// configuration runs as a comparison of one spec.
//
// It also records and replays binary reference traces (traceio.go), kept
// for the benchmark. The engine does not use them: it renders the stream
// once and stores nothing.
package core

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
)

// Config parameterises one simulation run.
type Config struct {
	// Width and Height give the screen resolution; the paper uses
	// 1024x768.
	Width, Height int
	// Frames is the number of animation frames to simulate, spread
	// evenly over the workload's camera path. Zero means the workload's
	// paper-scale frame count.
	Frames int
	// Mode selects the texture filter (point for §4 statistics,
	// bilinear/trilinear for cache studies).
	Mode raster.SampleMode
	// L1Bytes is the L1 cache capacity; the paper studies 2 KB and
	// 16 KB primarily.
	L1Bytes int
	// L1Ways is the L1 associativity; 0 means the paper's 2-way.
	L1Ways int
	// L2 configures the L2 cache; nil simulates the pull architecture.
	L2 *cache.L2Config
	// TLBEntries sizes the page-table TLB (0 = no TLB statistics).
	TLBEntries int
	// ZBeforeTexture enables the §6 z-before-texture optimisation.
	ZBeforeTexture bool
	// StatLayouts, when non-empty, enables the §4 working-set collector
	// at the given tile granularities.
	StatLayouts []texture.TileLayout
	// Parallelism, RenderWorkers and ReplayWorkers selected the retired
	// parallel sweep engines.
	//
	// Deprecated: ignored. Every exact sweep runs on the one exact
	// engine; the fields stay only so existing callers keep compiling.
	Parallelism, RenderWorkers, ReplayWorkers int
	// Trace, when non-nil, is the textrace registry of an exact
	// comparison run: the "render" track's frame spans and per-spec
	// "replayed/<spec>" progress counters, recorded by the calling
	// goroutine. The -fast engine records nothing. Export it with
	// WriteChromeTrace for Perfetto/chrome://tracing, aggregate it with
	// Report, or serve it live through telemetry.NewMonitor. Span timings
	// are observational sidecar data and never feed back into simulation
	// output. A nil Trace costs one predictable branch per event site and
	// allocates nothing.
	Trace *telemetry.Trace
	// FastSweep switches RunComparison to the analytic engine: the
	// workload is rendered once through the reuse probe and every spec
	// gets its counters predicted from the profile by the reuse model
	// (see internal/model/reusemodel) instead of simulated — TLB
	// statistics come from exact in-probe filters. A spec outside the
	// model's reach (a direct-mapped L1, random replacement, disabled
	// sector mapping, an off-granularity tile size) is an error. Modeled
	// Results carry Totals but no per-frame breakdown. The comparison
	// carries the probe's profile (Comparison.ReuseProfile) and the
	// model's per-spec report (Comparison.Model). Incompatible with
	// StatLayouts.
	FastSweep bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.validateRender(); err != nil {
		return err
	}
	if c.L1Bytes <= 0 {
		return fmt.Errorf("core: L1 size %d", c.L1Bytes)
	}
	if c.L2 != nil {
		if err := c.L2.Layout.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateRender checks what a render reads: the resolution and the
// working-set layouts. RunComparison and RunPush check only these, since
// they take no cache from the configuration.
func (c Config) validateRender() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("core: invalid resolution %dx%d", c.Width, c.Height)
	}
	for _, l := range c.StatLayouts {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultConfig returns the paper's baseline configuration: 1024x768,
// trilinear, 2 KB L1, 2 MB L2 of 16x16 tiles with clock replacement, and a
// 16-entry TLB.
func DefaultConfig() Config {
	return Config{
		Width:   1024,
		Height:  768,
		Mode:    raster.Trilinear,
		L1Bytes: 2 * 1024,
		L2: &cache.L2Config{
			SizeBytes: 2 * 1024 * 1024,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
}
