package core

import (
	"bytes"
	"reflect"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// telemetrySpecs is a small sweep covering pull and two L2 sizes that
// share one layout translation.
func telemetrySpecs() []CacheSpec {
	return []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 * 1024},
		l2spec("l2-2m", 2*1024, 2, 16),
		l2spec("l2-4m", 2*1024, 4, 16),
		{Name: "pull-16k", L1Bytes: 16 * 1024},
	}
}

// TestMetricStreamDeterminism: the JSONL metric stream
// EmitComparisonMetrics replays from a finished Comparison holds one
// record per frame and spec, frame-major and spec-minor, each the
// frame's results, and is byte-identical across two identical runs. The
// -fast engine's reuse profile of the same stream is identical across
// two runs and observes every texel reference.
func TestMetricStreamDeterminism(t *testing.T) {
	specs := telemetrySpecs()
	run := func() ([]byte, []telemetry.FrameMetrics, *Comparison) {
		cfg := testCfg()
		cfg.Frames = 4
		cmp, err := RunComparison(workload.Village(), cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		var buf telemetry.Buffer
		EmitComparisonMetrics(telemetry.Tee(telemetry.NewJSONL(&out), &buf), cmp)
		return out.Bytes(), buf.Records, cmp
	}

	replayed, recs, cmp := run()
	if want := 4 * len(specs); len(recs) != want {
		t.Fatalf("emitted %d records, want %d", len(recs), want)
	}
	for n, m := range recs {
		f, i := n/len(specs), n%len(specs)
		if want := metricsFrame("village", specs[i].Name, f, &cmp.Results[i].Frames[f]); m != want {
			t.Errorf("record %d = %+v, want %+v", n, m, want)
		}
	}
	if again, _, _ := run(); !bytes.Equal(again, replayed) {
		t.Error("JSONL stream differs between identical runs")
	}

	profile := func() *telemetry.SectorProfile {
		cfg := testCfg()
		cfg.Frames = 4
		cfg.FastSweep = true
		fast, err := RunComparison(workload.Village(), cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return fast.ReuseProfile
	}
	p := profile()
	if !reflect.DeepEqual(profile(), p) {
		t.Error("reuse profile differs between identical -fast runs")
	}
	if p == nil || p.Blocks.Accesses != cmp.Results[0].Totals.L1.Accesses {
		t.Errorf("reuse profile %+v does not observe the %d texel references",
			p, cmp.Results[0].Totals.L1.Accesses)
	}
}

// TestRunEmitsMetrics: EmitMetrics replays one spec's finished Results as
// one record per frame, in frame order.
func TestRunEmitsMetrics(t *testing.T) {
	render := testCfg()
	render.Frames = 3
	res := runSpecs(t, workload.City(), render, l2spec("l2-2m", 2*1024, 2, 16))[0]
	var buf telemetry.Buffer
	EmitMetrics(&buf, res, "")
	if len(buf.Records) != 3 {
		t.Fatalf("emitted %d records, want 3", len(buf.Records))
	}
	for f, m := range buf.Records {
		want := metricsFrame(res.Workload, "", f, &res.Frames[f])
		if m != want {
			t.Errorf("frame %d record = %+v, want %+v", f, m, want)
		}
		if m.Workload != "city" || m.Frame != f {
			t.Errorf("frame %d mislabelled: %+v", f, m)
		}
		if m.L1Accesses == 0 || m.Pixels == 0 {
			t.Errorf("frame %d has empty counters: %+v", f, m)
		}
	}
}

// TestRunWithoutTelemetry pins the defaults: no trace, and no reuse
// probe outside the -fast engine, so an exact comparison carries no
// reuse profile and no model report.
func TestRunWithoutTelemetry(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 2
	cmp, err := RunComparison(workload.Village(), cfg, telemetrySpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ReuseProfile != nil || cmp.Model != nil {
		t.Errorf("exact comparison carries reuse profile %+v and model report %+v",
			cmp.ReuseProfile, cmp.Model)
	}
}

// TestSweepSpans pins the exact engine's phase spans through an
// injected deterministic clock: one "frame" span per frame, all on the
// "render" track — the only phase an exact-sweep manifest lists.
func TestSweepSpans(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 2
	cfg.Trace = telemetry.NewTrace(&telemetry.FakeClock{Step: 1})
	if _, err := RunComparison(workload.Village(), cfg, telemetrySpecs()[:2]); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Trace.Report()
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "frame" ||
		rep.Phases[0].Count != 2 || rep.Phases[0].MaxTrack != "render" {
		t.Errorf("phases = %+v, want 2 frame spans on the render track", rep.Phases)
	}
}

// TestEmitPathAllocFree asserts the per-texel hot paths allocate
// nothing: ReplayTrace's address sink, and the -fast engine's reuse
// probe with an L1 filter and TLB behind it.
func TestEmitPathAllocFree(t *testing.T) {
	for _, tc := range emitSinks(t) {
		u, v := 0, 0
		if n := testing.AllocsPerRun(1000, func() {
			tc.sink.Texel(texture.ID(0), u, v, 0)
			u = (u + 7) & 63
			v = (v + 3) & 63
		}); n != 0 {
			t.Errorf("%s: %.1f allocs per texel, want 0", tc.name, n)
		}
	}
}

// emitSinks builds the per-texel sinks of TestEmitPathAllocFree and
// BenchmarkTexelEmit over Village's texture set.
func emitSinks(tb testing.TB) []struct {
	name string
	sink raster.Sink
} {
	w := workload.Village()
	_, sink, err := buildHierarchy(w.Scene.Textures, withL2(testCfg(), 2))
	if err != nil {
		tb.Fatal(err)
	}
	probe := newReuseProbe(w.Scene.Textures)
	probe.filters = []*probeFilter{{
		l1:   cache.MustNewL1Assoc(2<<10, 2),
		tlbs: []probeTLB{{tlb: cache.NewTLB(16)}},
	}}
	return []struct {
		name string
		sink raster.Sink
	}{{"addr-sink", sink}, {"reuse-probe", probe}}
}

func BenchmarkTexelEmit(b *testing.B) {
	for _, tc := range emitSinks(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.sink.Texel(texture.ID(0), i&63, (i>>6)&63, 0)
			}
		})
	}
}
