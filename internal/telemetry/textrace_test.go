package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestTraceNewTracePanicsWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTrace(nil) should panic")
		}
	}()
	NewTrace(nil)
}

func TestTextraceNilSafety(t *testing.T) {
	var tr *Trace
	k := tr.Track("render")
	c := tr.Counter("frames")
	if k != nil || c != nil {
		t.Fatal("nil trace must yield nil handles")
	}
	r := k.Begin("frame", 0)
	r.End()
	c.Sample(1)
	if c.Value() != 0 {
		t.Fatal("nil counter Value should be 0")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"traceEvents\":[]}\n" {
		t.Fatalf("nil trace export = %q", got)
	}
	if tr.Report() != nil {
		t.Fatal("nil trace report should be nil")
	}
}

// TestTextraceDisabledAllocFree pins the acceptance criterion: every
// recording call on disabled (nil) handles is allocation-free.
func TestTextraceDisabledAllocFree(t *testing.T) {
	var tr *Trace
	k := tr.Track("render")
	c := tr.Counter("frames")
	allocs := testing.AllocsPerRun(1000, func() {
		r := k.Begin("frame", 3)
		_ = c.Value()
		c.Sample(4)
		r.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled emit path allocates %.1f per op, want 0", allocs)
	}
}

func TestTrackRegistryShared(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 1})
	if tr.Track("a") != tr.Track("a") {
		t.Fatal("same name must return the same track")
	}
	if tr.Counter("c") != tr.Counter("c") {
		t.Fatal("same name must return the same counter")
	}
	if tr.Track("a") == tr.Track("b") {
		t.Fatal("distinct names must return distinct tracks")
	}
}

// TestCounterLiveValue: every Sample is recorded for the export and
// becomes the live value the monitor reads.
func TestCounterLiveValue(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 1})
	c := tr.Counter("replayed/l2-2m")
	if got := c.Value(); got != 0 {
		t.Fatalf("unsampled Value = %d, want 0", got)
	}
	c.Sample(10)
	c.Sample(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7 (the latest sample)", got)
	}
	s := c.snapshotSamples()
	if len(s) != 2 || s[0].value != 10 || s[1].value != 7 || s[1].at <= s[0].at {
		t.Fatalf("samples = %+v, want 10 then 7 in clock order", s)
	}
}

// TestTextraceConcurrentRecording exercises the registry under -race: N
// goroutines each own a track and sample shared counters while the main
// goroutine reads them the way the live monitor and a mid-run export
// do.
func TestTextraceConcurrentRecording(t *testing.T) {
	const workers = 8
	const spans = 200
	tr := NewTrace(&FakeClock{Step: 3})
	shared := tr.Counter("shared")
	mon := NewMonitor(tr, spans)

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := tr.Track(fmt.Sprintf("worker %d", g))
			for i := 0; i < spans; i++ {
				r := k.Begin("frame", int64(i))
				shared.Sample(int64(i) + 1)
				tr.Counter("late").Sample(int64(i))
				r.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = mon.Snapshot()
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("concurrent export: %v", err)
				return
			}
			_ = tr.Report()
		}
	}()
	wg.Wait()
	<-done

	if got := len(shared.snapshotSamples()); got != workers*spans {
		t.Fatalf("shared counter has %d samples, want %d", got, workers*spans)
	}
	if got := shared.Value(); got != spans {
		t.Fatalf("shared counter = %d, want %d (every worker's last sample)", got, spans)
	}
	for g := 0; g < workers; g++ {
		k := tr.Track(fmt.Sprintf("worker %d", g))
		nspans, _, open := k.status()
		if nspans != spans {
			t.Fatalf("worker %d closed %d spans, want %d", g, nspans, spans)
		}
		if open != "" {
			t.Fatalf("worker %d still has open span %q", g, open)
		}
	}
}

func TestTrackStatusOpenSpan(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 5})
	k := tr.Track("w")
	outer := k.Begin("outer", 0)
	inner := k.Begin("inner", 0)
	if _, _, open := k.status(); open != "inner" {
		t.Fatalf("open = %q, want inner", open)
	}
	inner.End()
	if _, _, open := k.status(); open != "outer" {
		t.Fatalf("open = %q, want outer", open)
	}
	outer.End()
	spans, busy, open := k.status()
	if open != "" || spans != 2 {
		t.Fatalf("status = (%d, %q), want (2, \"\")", spans, open)
	}
	// Only the depth-0 outer span counts toward busy.
	// Clock readings: outer.start=0, inner.start=5, inner.end=10,
	// outer.end=15 → outer dur 15.
	if busy != 15 {
		t.Fatalf("busy = %d, want 15", busy)
	}
}

// TestTraceReport drives the aggregation over a hand-built trace
// with a known layout: two workers, a straggler, and a two-step
// critical path.
func TestTraceReport(t *testing.T) {
	sc := &scriptClock{}
	tr := NewTrace(sc)

	a := tr.Track("worker a")
	b := tr.Track("worker b")
	// worker a: frame spans at [0,10), [10,20), [20,100) — the last is
	// a straggler (median 10, 80 > 2*10).
	for i, d := range []int64{10, 10, 80} {
		sc.at = [2]int64{sc.now, sc.now + d}
		r := a.Begin("frame", int64(i))
		r.End()
	}
	// worker b: one span [100,130) that chains after a's last end.
	sc.at = [2]int64{100, 130}
	r := b.Begin("frame", 3)
	r.End()

	rep := tr.Report()
	if rep.DurationNS != 130 {
		t.Fatalf("duration = %d, want 130", rep.DurationNS)
	}
	if len(rep.Tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(rep.Tracks))
	}
	if rep.Tracks[0].Name != "worker a" || rep.Tracks[0].BusyNS != 100 {
		t.Fatalf("track[0] = %+v", rep.Tracks[0])
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "frame" ||
		rep.Phases[0].Count != 4 || rep.Phases[0].TotalNS != 130 ||
		rep.Phases[0].MaxNS != 80 || rep.Phases[0].MaxTrack != "worker a" {
		t.Fatalf("phase = %+v", rep.Phases[0])
	}
	// Phase durations [10,10,30,80]: median 30, so only the 80 ns span
	// passes the 2x bar.
	if len(rep.Stragglers) != 1 || rep.Stragglers[0].Seq != 2 ||
		rep.Stragglers[0].Median != 30 || rep.Stragglers[0].DurNS != 80 {
		t.Fatalf("stragglers = %+v", rep.Stragglers)
	}
	// Critical path: b's span [100,130) ← a's [20,100) ← a's [10,20) ←
	// a's [0,10), total 130, presented in time order.
	if rep.CriticalNS != 130 || len(rep.Critical) != 4 {
		t.Fatalf("critical = %d ns over %d steps, want 130 over 4",
			rep.CriticalNS, len(rep.Critical))
	}
	if rep.Critical[0].StartNS != 0 || rep.Critical[3].Track != "worker b" {
		t.Fatalf("critical path order wrong: %+v", rep.Critical)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"textrace report", "worker a", "worker b",
		"frame", "straggler", "critical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

// scriptClock returns at[0] then at[1] for each Begin/End pair.
type scriptClock struct {
	at  [2]int64
	i   int
	now int64
}

func (c *scriptClock) Now() int64 {
	v := c.at[c.i%2]
	c.i++
	c.now = v
	return v
}

func TestReportEmptyTrace(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 1})
	rep := tr.Report()
	if rep.DurationNS != 0 || len(rep.Tracks) != 0 || len(rep.Critical) != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var nilRep *TraceReport
	if err := nilRep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestChromeTraceGolden pins the export bytes of a small hand-built
// trace — tracks in name order, empty tracks and counters skipped,
// clock timestamps in microseconds — then validates the same document
// parses as the trace_event JSON-object shape Perfetto expects.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 700})
	tr.Track("idle")                          // no events: skipped
	r := tr.Track("render").Begin("frame", 0) // start=0
	r.End()                                   // end=700
	c := tr.Counter("replayed/pull-2k")
	c.Sample(1)         // at=1400
	c.Sample(2)         // at=2100
	tr.Counter("empty") // no samples: skipped

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"textrace"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"render"}},
{"ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.700,"name":"frame","args":{"seq":0}},
{"ph":"C","pid":1,"tid":0,"ts":1.400,"name":"replayed/pull-2k","args":{"value":1}},
{"ph":"C","pid":1,"tid":0,"ts":2.100,"name":"replayed/pull-2k","args":{"value":2}}
],"displayTimeUnit":"ms"}
`
	if got := buf.String(); got != want {
		t.Fatalf("export mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	validateChromeShape(t, buf.Bytes())
}

// TestChromeTraceWallGolden pins the export of a run still recording,
// as texsim -monitor serves it at /trace: the open span exports with
// zero duration instead of being dropped.
func TestChromeTraceWallGolden(t *testing.T) {
	tr := NewTrace(&FakeClock{Step: 500})
	k := tr.Track("render")
	r := k.Begin("frame", 0)               // start=0
	r.End()                                // end=500
	k.Begin("frame", 1)                    // start=1000, left open: mid-run
	tr.Counter("replayed/l2-2m").Sample(1) // at=1500

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"textrace"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"render"}},
{"ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.500,"name":"frame","args":{"seq":0}},
{"ph":"X","pid":1,"tid":1,"ts":1.000,"dur":0.000,"name":"frame","args":{"seq":1}},
{"ph":"C","pid":1,"tid":0,"ts":1.500,"name":"replayed/l2-2m","args":{"value":1}}
],"displayTimeUnit":"ms"}
`
	if got := buf.String(); got != want {
		t.Fatalf("mid-run export mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	validateChromeShape(t, buf.Bytes())
}

// validateChromeShape checks the exported document against the
// trace_event schema shape: a traceEvents array whose members carry the
// fields Perfetto requires per phase type.
func validateChromeShape(t *testing.T, data []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		DisplayUnit string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" || name == "" {
			t.Fatalf("event %d missing ph/name: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing pid: %v", i, ev)
		}
		switch ph {
		case "M":
			args, ok := ev["args"].(map[string]interface{})
			if !ok || args["name"] == nil {
				t.Fatalf("metadata event %d missing args.name: %v", i, ev)
			}
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event %d missing ts: %v", i, ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event %d missing dur: %v", i, ev)
			}
		case "C":
			args, ok := ev["args"].(map[string]interface{})
			if !ok || args["value"] == nil {
				t.Fatalf("counter event %d missing args.value: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := map[int64]string{
		0:     "0.000",
		1:     "0.001",
		999:   "0.999",
		1000:  "1.000",
		1500:  "1.500",
		-1500: "-1.500",
	}
	for ns, want := range cases {
		if got := usec(ns); got != want {
			t.Errorf("usec(%d) = %q, want %q", ns, got, want)
		}
	}
}
