// Package core is the study's simulator: it drives a workload's scripted
// animation through the geometry pipeline and rasterizer, translates each
// texel reference to the hierarchical virtual texture address, and presents
// it to the configured cache hierarchy (L1 only for the pull architecture,
// L1+L2 for the proposed architecture), gathering per-frame transaction
// counts, bandwidths, and working-set statistics.
//
// It also records and replays binary reference traces, decoupling the
// (expensive) rendering from (cheap) cache simulation, which is how the
// paper sweeps cache parameters over fixed animations.
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
	// Framebuffer renders colour output (snapshots); costs time.
	Framebuffer bool
	// Parallelism, RenderWorkers and ReplayWorkers selected the retired
	// parallel sweep engines.
	//
	// Deprecated: ignored. Every exact sweep runs on the one serial
	// engine; the fields stay only so existing callers keep compiling.
	Parallelism, RenderWorkers, ReplayWorkers int
	// Metrics, when non-nil, receives one telemetry record per simulated
	// frame (and per cache spec in comparison runs) in a deterministic
	// frame-major, spec-minor order. Emission happens outside the
	// per-texel hot path; a nil Metrics costs nothing.
	Metrics telemetry.Emitter
	// Tracer, when non-nil, records the comparison engines' phase spans:
	// "render" around the exact engine's frame loop, plus the -fast
	// engine's "exact-fallback", "model" and "tlb-patch". Span timings
	// are observational sidecar data and never feed back into simulation
	// output.
	Tracer *telemetry.Tracer
	// Trace, when non-nil, is the textrace registry of comparison runs:
	// span tracks ("render" frames of the exact engine, "fast-probe"
	// frames and "model" evaluations of the -fast engine), per-spec
	// "replayed/<spec>" progress counters, and instant events for model
	// refusals. Export it with WriteChromeTrace for
	// Perfetto/chrome://tracing, or serve it live through
	// telemetry.NewMonitor. A nil Trace costs one predictable branch per
	// event site and allocates nothing.
	Trace *telemetry.Trace
	// CollectReuse enables the reuse-distance probe: an LRU stack
	// distance histogram over L2 block addresses of the rendered
	// reference stream, attached to Results.Reuse / Comparison.Reuse.
	// Comparison runs additionally attach the sector profile and the
	// analytic model's per-spec report (Comparison.Model).
	CollectReuse bool
	// FastSweep switches RunComparison to the analytic engine: the
	// workload is rendered once through the reuse probe and every spec
	// the reuse model can reach (see internal/model/reusemodel) gets its
	// counters predicted from the profile instead of replayed — TLB
	// statistics come from exact in-probe filters. Specs outside the
	// model's reach (direct-mapped L1s, random replacement, disabled
	// sector mapping, off-granularity tile sizes) run on the exact engine.
	// Modeled Results carry Totals but no per-frame breakdown.
	// Implies CollectReuse for the comparison; incompatible with
	// StatLayouts.
	FastSweep bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("core: invalid resolution %dx%d", c.Width, c.Height)
	}
	if c.L1Bytes <= 0 {
		return fmt.Errorf("core: L1 size %d", c.L1Bytes)
	}
	if c.L2 != nil {
		if err := c.L2.Layout.Validate(); err != nil {
			return err
		}
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
