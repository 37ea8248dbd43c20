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

// TestTraceDeterminism: the engine records from one goroutine, its
// caller's (the render stage's goroutine records nothing), so under
// FakeClock the export — the "render" frame spans and per-spec
// "replayed/" samples, with their clock readings — is a pure function
// of the work, and two runs of the same sweep export identical bytes.
func TestTraceDeterminism(t *testing.T) {
	base := sweepTrace(t, &telemetry.FakeClock{Step: 7})
	for _, want := range []string{
		`"name":"frame"`, `"name":"render"`, `"replayed/pull-2k"`, `"replayed/l2-4m"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Fatalf("export missing %s:\n%s", want, base)
		}
	}
	if got := sweepTrace(t, &telemetry.FakeClock{Step: 7}); !bytes.Equal(got, base) {
		t.Errorf("trace differs between identical runs (%d vs %d bytes)", len(got), len(base))
	}
}

// TestTraceWallExportShape pins the export shape against a stepping
// clock: valid trace_event JSON with the engine's "render" track and one
// "replayed/" counter track per spec.
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

// stepTestClock advances by a fixed step before each reading, so no
// timestamp is zero.
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
