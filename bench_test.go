package texcache

import (
	"bytes"
	"io"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/vecmath"
	"texcache/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment regeneration benchmarks: one per table and figure of the
// paper. Each iteration regenerates the experiment at bench scale from a
// fresh context (no memoization across iterations), so the reported time
// is the true cost of reproducing that result.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(experiments.Bench(), io.Discard)
		if err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig9(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable56(b *testing.B) { benchExperiment(b, "table56") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }

func BenchmarkAblationZBuffer(b *testing.B)     { benchExperiment(b, "ablation-z") }
func BenchmarkAblationReplacement(b *testing.B) { benchExperiment(b, "ablation-repl") }
func BenchmarkAblationSector(b *testing.B)      { benchExperiment(b, "ablation-sector") }
func BenchmarkAblationAssoc(b *testing.B)       { benchExperiment(b, "ablation-assoc") }
func BenchmarkFutureWorkload(b *testing.B)      { benchExperiment(b, "future") }
func BenchmarkPushArchitecture(b *testing.B)    { benchExperiment(b, "push") }

// ---------------------------------------------------------------------------
// Component micro-benchmarks: throughput of the building blocks.
// ---------------------------------------------------------------------------

// BenchmarkL1Access measures the L1 lookup/fill path with a strided
// reference pattern (~90% hits, matching workload behaviour).
func BenchmarkL1Access(b *testing.B) {
	l1 := cache.MustNewL1(16 << 10)
	refs := make([]cache.L1Ref, 4096)
	for i := range refs {
		tile := uint32(i % 512) // working set larger than the cache
		refs[i] = cache.L1Ref{
			Tag: cache.PackTag(0, tile/16, uint16(tile%16)),
			Set: cache.SetHash(int32(tile%64), int32(tile/64), 0, 0),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Access(refs[i%len(refs)])
	}
}

// BenchmarkL2Access measures the L2 page-table path including clock
// replacement under capacity pressure.
func BenchmarkL2Access(b *testing.B) {
	layout := texture.TileLayout{L2Size: 16, L1Size: 4}
	l2 := cache.MustNewL2(cache.L2Config{
		SizeBytes: 1 << 20, Layout: layout, Policy: cache.Clock,
	}, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2.Access(uint32(i%4096), uint8(i%16))
	}
}

// BenchmarkTLBLookup measures the 16-entry TLB scan.
func BenchmarkTLBLookup(b *testing.B) {
	tlb := cache.NewTLB(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Lookup(uint32(i % 24))
	}
}

// BenchmarkAddrTranslation measures <u,v,m> -> <tid,L2,L1> translation.
func BenchmarkAddrTranslation(b *testing.B) {
	tex := texture.MustNew("t", 1024, 1024, texture.RGBA8888, nil)
	ti := texture.MustNewTiling(tex, texture.TileLayout{L2Size: 16, L1Size: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ti.Addr(i&1023, (i>>2)&1023, 0)
	}
}

// BenchmarkRasterizerFill measures textured pixel throughput including
// trilinear texel emission.
func BenchmarkRasterizerFill(b *testing.B) {
	r := raster.MustNew(raster.Config{Width: 256, Height: 256, Mode: raster.Trilinear})
	var texels int64
	r.SetSink(raster.SinkFunc(func(tid texture.ID, u, v, m int) { texels++ }))
	tex := texture.MustNew("t", 256, 256, texture.RGBA8888, nil)
	quad := benchQuad()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BeginFrame()
		for _, tri := range quad {
			r.DrawTriangle(tex, tri[0], tri[1], tri[2], 1)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(65536), "pixels/op")
	}
}

// BenchmarkVillageFrame measures one full simulated frame (geometry,
// rasterization, L1+L2 simulation) of the Village at bench resolution,
// each on fresh caches.
func BenchmarkVillageFrame(b *testing.B) {
	w := workload.Village()
	render := core.Config{
		Width: 256, Height: 192,
		Frames: 1,
		Mode:   raster.Trilinear,
	}
	specs := []core.CacheSpec{{Name: "l2-2m", L1Bytes: 2 << 10, L2: &cache.L2Config{
		SizeBytes: 2 << 20,
		Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
		Policy:    cache.Clock,
	}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunComparison(w, render, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sweep benchmarks: the full 13-spec cache sweep of the Village at bench
// scale, on the exact engine (the stream rendered and filtered on one
// goroutine, the 13 hierarchies simulated on the caller's) and on the
// analytic -fast engine.
// ---------------------------------------------------------------------------

func benchSweep(b *testing.B, fast bool) {
	b.Helper()
	scale := experiments.Bench()
	render := core.Config{
		Width:     scale.Width,
		Height:    scale.Height,
		Frames:    scale.VillageFrames,
		Mode:      raster.Trilinear,
		FastSweep: fast,
	}
	specs := experiments.SweepSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunComparison(workload.Village(), render, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the exact engine.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, false) }

// BenchmarkSweepFast is the analytic engine: one instrumented render
// feeds the reuse model, which predicts every spec's counters.
func BenchmarkSweepFast(b *testing.B) { benchSweep(b, true) }

// BenchmarkReplaySingleSpecSerial replays one recorded Village stream
// through a single 2 MB L2 hierarchy. The trace is recorded once outside
// the timer, so the measured work is purely decode, translate and cache.
func BenchmarkReplaySingleSpecSerial(b *testing.B) {
	scale := experiments.Bench()
	cfg := core.Config{
		Width: scale.Width, Height: scale.Height,
		Frames:  scale.VillageFrames,
		Mode:    raster.Trilinear,
		L1Bytes: 2 * 1024,
		L2: &cache.L2Config{
			SizeBytes: 2 * 1024 * 1024,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
	w := workload.Village()
	var buf bytes.Buffer
	if _, err := core.RecordTrace(w, cfg, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayTrace(bytes.NewReader(data), w.Scene.Textures, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecordReplay measures the trace encode+decode round trip:
// each iteration records two City frames into memory and decodes them
// back through trace.ReplayFrames.
func BenchmarkTraceRecordReplay(b *testing.B) {
	w := workload.City()
	cfg := core.Config{
		Width: 160, Height: 120,
		Frames:  2,
		Mode:    raster.Point,
		L1Bytes: 2 << 10,
	}
	b.ReportAllocs()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := core.RecordTrace(w, cfg, &buf); err != nil {
			b.Fatal(err)
		}
		frames, err := trace.ReplayFrames(bytes.NewReader(buf.Bytes()), discardEvents{}, 0)
		if err != nil || frames != cfg.Frames {
			b.Fatalf("replayed %d of %d frames: %v", frames, cfg.Frames, err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// discardEvents drops replayed trace events.
type discardEvents struct{}

func (discardEvents) BeginFrame()                   {}
func (discardEvents) Texel(tid uint32, u, v, m int) {}
func (discardEvents) EndFrame(pixels int64)         {}

func benchQuad() [2][3]raster.Vertex {
	mk := func(x, y, u, v float64) raster.Vertex {
		return raster.Vertex{
			Pos: vecmath.Vec4{X: x, Y: y, Z: 0, W: 1},
			UV:  vecmath.Vec2{X: u, Y: v},
		}
	}
	bl := mk(-1, -1, 0, 1)
	br := mk(1, -1, 1, 1)
	tl := mk(-1, 1, 0, 0)
	tr := mk(1, 1, 1, 0)
	return [2][3]raster.Vertex{{tl, bl, br}, {tl, br, tr}}
}
