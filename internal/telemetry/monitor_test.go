package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// monitorFixture builds a mid-run trace on a FakeClock: one render
// track with an open frame, two spec progress counters, and a counter
// the monitor reports without deriving spec progress from it.
func monitorFixture() *Trace {
	tr := NewTrace(&FakeClock{Step: 100})
	k := tr.Track("render worker 0")
	r := k.Begin("frame", 0)
	r.End()
	k.Begin("frame", 1) // left open: mid-run
	tr.Counter("replayed/pull-2k").Sample(1)
	tr.Counter("replayed/pull-2k").Sample(2)
	tr.Counter("replayed/l2-2m").Sample(1)
	tr.Counter("chunk-bytes-inflight").Sample(512 << 10)
	return tr
}

func TestMonitorSnapshot(t *testing.T) {
	m := NewMonitor(monitorFixture(), 4)
	snap := m.Snapshot()
	if snap.ElapsedNS <= 0 {
		t.Fatal("elapsed should advance under FakeClock")
	}
	if snap.FramesTotal != 4 {
		t.Fatalf("frames_total = %d", snap.FramesTotal)
	}
	if len(snap.Specs) != 2 {
		t.Fatalf("specs = %+v, want 2 entries", snap.Specs)
	}
	// Counters (and thus specs) are sorted by name: l2-2m before pull-2k.
	if snap.Specs[0].Spec != "l2-2m" || snap.Specs[0].Frames != 1 || snap.Specs[0].Done != 0.25 {
		t.Fatalf("specs[0] = %+v", snap.Specs[0])
	}
	if snap.Specs[1].Spec != "pull-2k" || snap.Specs[1].Done != 0.5 {
		t.Fatalf("specs[1] = %+v", snap.Specs[1])
	}
	if len(snap.Counters) != 3 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Counters[0].Name != "chunk-bytes-inflight" || snap.Counters[0].Value != 512<<10 {
		t.Fatalf("counters[0] = %+v", snap.Counters[0])
	}
	if len(snap.Tracks) != 1 {
		t.Fatalf("tracks = %+v", snap.Tracks)
	}
	tk := snap.Tracks[0]
	if tk.Name != "render worker 0" || tk.Spans != 1 || tk.Open != "frame" {
		t.Fatalf("track = %+v", tk)
	}
	if tk.BusyNS <= 0 || tk.Utilization <= 0 {
		t.Fatalf("track busy/utilization = %+v", tk)
	}
}

func TestMonitorNilTrace(t *testing.T) {
	m := NewMonitor(nil, 0)
	snap := m.Snapshot()
	if snap.ElapsedNS != 0 || len(snap.Tracks) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil-trace snapshot = %+v", snap)
	}
}

func TestMonitorEndpoints(t *testing.T) {
	m := NewMonitor(monitorFixture(), 4)
	for _, path := range []string{"/", "/snapshot"} {
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s content-type %q", path, ct)
		}
		var snap MonitorSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if len(snap.Specs) != 2 || snap.FramesTotal != 4 {
			t.Fatalf("%s snapshot = %+v", path, snap)
		}
	}

	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace -> %d", rec.Code)
	}
	if !strings.HasPrefix(rec.Body.String(), `{"traceEvents":[`) {
		t.Fatalf("/trace body = %q", rec.Body.String()[:40])
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}

	rec = httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("/nope -> %d", rec.Code)
	}
}
