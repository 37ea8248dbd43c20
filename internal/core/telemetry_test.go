package core

import (
	"bytes"
	"reflect"
	"testing"

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

// TestMetricStreamDeterminism: the JSONL metric stream the engine
// streams record by record while running is byte-identical to
// EmitComparisonMetrics replaying the finished Comparison — the path
// memoized experiment runs take — and to a second identical run.
func TestMetricStreamDeterminism(t *testing.T) {
	specs := telemetrySpecs()
	run := func() ([]byte, []telemetry.FrameMetrics, *Comparison) {
		var out bytes.Buffer
		var buf telemetry.Buffer
		cfg := testCfg()
		cfg.Frames = 4
		cfg.Metrics = telemetry.Tee(telemetry.NewJSONL(&out), &buf)
		cfg.CollectReuse = true
		cmp, err := RunComparison(workload.Village(), cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), buf.Records, cmp
	}

	streamed, recs, cmp := run()
	if want := 4 * len(specs); len(recs) != want {
		t.Fatalf("emitted %d records, want %d", len(recs), want)
	}
	var replayed bytes.Buffer
	EmitComparisonMetrics(telemetry.NewJSONL(&replayed), cmp)
	if !bytes.Equal(replayed.Bytes(), streamed) {
		t.Error("EmitComparisonMetrics stream not byte-identical to the streamed one")
	}
	again, _, cmp2 := run()
	if !bytes.Equal(again, streamed) {
		t.Error("JSONL stream differs between identical runs")
	}
	if !reflect.DeepEqual(cmp2.Reuse, cmp.Reuse) {
		t.Error("reuse histogram differs between identical runs")
	}
	if cmp.Reuse == nil || cmp.Reuse.Accesses == 0 {
		t.Error("reuse histogram empty despite CollectReuse")
	}
}

func TestRunEmitsMetrics(t *testing.T) {
	var buf telemetry.Buffer
	cfg := withL2(testCfg(), 2)
	cfg.Frames = 3
	cfg.Metrics = &buf
	cfg.CollectReuse = true
	res, err := Run(workload.City(), cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if res.Reuse == nil || res.Reuse.Accesses == 0 {
		t.Fatal("reuse histogram missing")
	}
	// Every texel reference must have been observed by the probe.
	if res.Reuse.Accesses != res.Totals.L1.Accesses {
		t.Errorf("reuse accesses = %d, L1 accesses = %d",
			res.Reuse.Accesses, res.Totals.L1.Accesses)
	}
}

// TestRunWithoutTelemetry pins the defaults: no emitter, no trace, no
// probe — nothing telemetry-shaped reaches the results.
func TestRunWithoutTelemetry(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 2
	res, err := Run(workload.Village(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reuse != nil {
		t.Error("reuse histogram present without CollectReuse")
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

// TestEmitPathAllocFree asserts the per-texel hot path allocates nothing,
// with the reuse probe both disabled and enabled — the ISSUE's "zero
// allocs/op added on the per-access emit path".
func TestEmitPathAllocFree(t *testing.T) {
	w := workload.Village()
	cfg := withL2(testCfg(), 2)
	build := func(collectReuse bool) *addrSink {
		c := cfg
		c.CollectReuse = collectReuse
		sim, err := NewSimulator(w, c)
		if err != nil {
			t.Fatal(err)
		}
		return sim.sink
	}
	for name, sink := range map[string]*addrSink{
		"disabled": build(false),
		"enabled":  build(true),
	} {
		u, v := 0, 0
		if n := testing.AllocsPerRun(1000, func() {
			sink.Texel(texture.ID(0), u, v, 0)
			u = (u + 7) & 63
			v = (v + 3) & 63
		}); n != 0 {
			t.Errorf("probe %s: %.1f allocs per texel, want 0", name, n)
		}
	}
}

func BenchmarkTexelEmit(b *testing.B) {
	w := workload.Village()
	for _, collectReuse := range []bool{false, true} {
		name := "reuse-off"
		if collectReuse {
			name = "reuse-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := withL2(testCfg(), 2)
			cfg.CollectReuse = collectReuse
			sim, err := NewSimulator(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.sink.Texel(texture.ID(0), i&63, (i>>6)&63, 0)
			}
		})
	}
}
