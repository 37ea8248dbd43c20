package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"texcache/internal/telemetry"
	"texcache/internal/workload"
)

// sweepTrace runs the canonical sweep with the given clock and returns
// the Chrome trace_event export.
func sweepTrace(t *testing.T, clock telemetry.Clock) []byte {
	t.Helper()
	cfg := testCfg()
	cfg.Frames = 4
	cfg.Trace = telemetry.NewTrace(clock)
	if _, err := RunComparison(workload.Village(), cfg, telemetrySpecs()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceCanonicalDeterminism: under FakeClock the export is a pure
// function of the logical work — the "render" frame spans and per-spec
// "replayed/" samples — so two runs of the same sweep export identical
// bytes.
func TestTraceCanonicalDeterminism(t *testing.T) {
	base := sweepTrace(t, &telemetry.FakeClock{Step: 7})
	for _, want := range []string{
		`"name":"frame"`, `"name":"render"`, `"replayed/pull-2k"`, `"replayed/l2-4m"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Fatalf("canonical export missing %s:\n%s", want, base)
		}
	}
	if got := sweepTrace(t, &telemetry.FakeClock{Step: 7}); !bytes.Equal(got, base) {
		t.Errorf("canonical trace differs between identical runs (%d vs %d bytes)", len(got), len(base))
	}
}

// TestTraceFastSweepCanonicalDeterminism extends the byte-identity
// contract to the analytic engine with an exact fallback beside the
// modeled specs.
func TestTraceFastSweepCanonicalDeterminism(t *testing.T) {
	// pull-16k with 1-way L1 is outside the model's reach, forcing the
	// exact-fallback path next to the modeled specs.
	specs := telemetrySpecs()
	specs[3].L1Ways = 1
	run := func() []byte {
		cfg := testCfg()
		cfg.Frames = 3
		cfg.FastSweep = true
		cfg.Trace = telemetry.NewTrace(&telemetry.FakeClock{Step: 7})
		if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := run()
	for _, want := range []string{
		`"name":"exact-fallback"`, `"name":"eval"`, `"name":"tlb-patch"`, `"name":"model"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Fatalf("fast canonical export missing %s:\n%s", want, base)
		}
	}
	if got := run(); !bytes.Equal(got, base) {
		t.Error("fast canonical trace differs between identical runs")
	}
}

// TestTraceFastProbePhase covers the all-modeled branch: the bare
// instrumented render records logical "probe" frame spans, and the old
// Tracer gains the fast-sweep phase spans PR 8 left dark.
func TestTraceFastProbePhase(t *testing.T) {
	specs := []CacheSpec{l2spec("l2-2m", 2*1024, 2, 16), l2spec("l2-4m", 2*1024, 4, 16)}
	cfg := testCfg()
	cfg.Frames = 3
	cfg.FastSweep = true
	cfg.Trace = telemetry.NewTrace(&telemetry.FakeClock{Step: 7})
	cfg.Tracer = telemetry.NewTracer(&telemetry.FakeClock{Step: 7})
	if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"probe"`)) {
		t.Fatalf("all-modeled fast sweep missing probe track:\n%s", buf.Bytes())
	}
	names := map[string]int{}
	for _, s := range cfg.Tracer.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{"render", "model", "tlb-patch"} {
		if names[want] == 0 {
			t.Errorf("fast sweep Tracer missing %q span (got %v)", want, names)
		}
	}
}

// TestTraceWallExportShape pins the wall-regime export against a
// stepping clock: valid trace_event JSON with the engine's "render"
// track and one "replayed/" counter track per spec.
func TestTraceWallExportShape(t *testing.T) {
	data := sweepTrace(t, &stepTestClock{step: 1000})
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	counters := map[string]bool{}
	frames := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Args.Name] = true
			}
		case "C":
			counters[ev.Name] = true
		case "X":
			if ev.Name == "frame" {
				frames++
			}
		}
	}
	if !tracks["render"] {
		t.Errorf("wall export has no render track (tracks %v)", tracks)
	}
	if frames != 4 {
		t.Errorf("wall export has %d frame spans, want 4", frames)
	}
	for _, s := range telemetrySpecs() {
		if !counters["replayed/"+s.Name] {
			t.Errorf("wall export missing counter replayed/%s (counters %v)", s.Name, counters)
		}
	}
}

// stepTestClock advances by a fixed step per reading without
// implementing DeterministicClock, so the trace records wall-regime.
type stepTestClock struct {
	ns   int64
	step int64
}

func (c *stepTestClock) Now() int64 {
	c.ns += c.step
	return c.ns
}

// TestTraceCountersTrackEngineWork sanity-checks the live counters the
// monitor serves: after a sweep every spec's replay counter equals the
// frame count and the render track holds one span per frame.
func TestTraceCountersTrackEngineWork(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 4
	cfg.Trace = telemetry.NewTrace(telemetry.NewWallClock())
	specs := telemetrySpecs()
	if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if got := cfg.Trace.Counter("replayed/" + s.Name).Value(); got != 4 {
			t.Errorf("replayed/%s = %d, want 4", s.Name, got)
		}
	}

	mon := telemetry.NewMonitor(cfg.Trace, cfg.Frames)
	snap := mon.Snapshot()
	if len(snap.Specs) != len(specs) {
		t.Fatalf("monitor sees %d specs, want %d", len(snap.Specs), len(specs))
	}
	for _, sp := range snap.Specs {
		if sp.Done != 1 {
			t.Errorf("spec %s done = %v, want 1", sp.Spec, sp.Done)
		}
	}
	if len(snap.Tracks) != 1 || snap.Tracks[0].Name != "render" || snap.Tracks[0].Spans != 4 {
		t.Errorf("monitor tracks = %+v, want one render track with 4 spans", snap.Tracks)
	}
}
