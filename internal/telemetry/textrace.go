// textrace: the run's one tracing registry. It records what the exact
// engine is doing (its "render" track's frames and its per-spec
// "replayed/" counters) in nestable span tracks and counter tracks,
// aggregates them into a per-phase Report (report.go), and exports the
// whole run as Chrome trace_event JSON (traceevent.go) that Perfetto or
// chrome://tracing opens directly.
//
// Events carry the injected clock's timestamps. The engine records from
// one goroutine (it renders on a second one, which records nothing), so
// under a FakeClock the readings — and with them the exported bytes —
// are a pure function of the work performed; the mutexes exist for
// readers (the live monitor, a mid-run export) that run beside the
// recorder.
//
// Every type is nil-safe: a nil *Trace yields nil *Track and *Counter
// handles whose methods do nothing and allocate nothing, so instrumented
// engine code pays one predictable branch when tracing is disabled.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Trace is the registry of span tracks and counter tracks for one run.
// Track and Counter return one shared instance per name, so code that
// cannot see each other's handles still lands on the same timeline.
type Trace struct {
	clockMu sync.Mutex
	clock   Clock

	mu       sync.Mutex
	tracks   []*Track   // registration order; export sorts by name
	counters []*Counter // registration order; export sorts by name
	tracksBy map[string]*Track
	countBy  map[string]*Counter
}

// NewTrace returns a trace registry reading time from clock.
func NewTrace(clock Clock) *Trace {
	if clock == nil {
		panic("telemetry: NewTrace requires a clock")
	}
	return &Trace{
		clock:    clock,
		tracksBy: map[string]*Track{},
		countBy:  map[string]*Counter{},
	}
}

// now reads the clock. Clock implementations need not be goroutine-safe
// (FakeClock mutates itself); the trace serialises access.
func (t *Trace) now() int64 {
	t.clockMu.Lock()
	v := t.clock.Now()
	t.clockMu.Unlock()
	return v
}

// Track returns the named span track, creating it on first use. A track
// is the physical recording surface for one goroutine's events: Begin
// and End must be called from a single owner at a time, while Snapshot
// and export may read it concurrently. Nil trace, nil track.
func (t *Trace) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.tracksBy[name]
	if k == nil {
		k = &Track{tr: t, name: name}
		t.tracksBy[name] = k
		t.tracks = append(t.tracks, k)
	}
	return k
}

// Counter returns the named counter track, creating it on first use.
// Counters are fully concurrent: any goroutine may Sample or read the
// Value. Nil trace, nil counter.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.countBy[name]
	if c == nil {
		c = &Counter{tr: t, name: name}
		t.countBy[name] = c
		t.counters = append(t.counters, c)
	}
	return c
}

// traceEvent is one recorded span. seq is the span's position in the
// engine's work (typically a frame or spec index). dur is -1 while the
// span is open.
type traceEvent struct {
	depth int
	name  string
	seq   int64
	start int64
	dur   int64
}

// Track is one span timeline. Events are recorded by a single
// owning goroutine; the mutex exists so snapshots and exports can read
// a live track safely.
type Track struct {
	tr   *Trace
	name string

	mu     sync.Mutex
	events []traceEvent
	open   []int // indices of open spans, innermost last
	busy   int64 // summed duration of closed depth-0 spans
}

// Region is an open span handle; End closes it. It is a value type so
// Begin/End pairs allocate nothing.
type Region struct {
	k   *Track
	idx int
}

// Begin opens a span on the track; seq is the span's position in the
// engine's work (frame index, spec index). Nil track: returns a no-op
// Region.
func (k *Track) Begin(name string, seq int64) Region {
	if k == nil {
		return Region{}
	}
	start := k.tr.now()
	k.mu.Lock()
	idx := len(k.events)
	k.events = append(k.events, traceEvent{
		depth: len(k.open),
		name:  name,
		seq:   seq,
		start: start,
		dur:   -1,
	})
	k.open = append(k.open, idx)
	k.mu.Unlock()
	return Region{k: k, idx: idx}
}

// End closes the span, recording its duration. No-op on a zero Region.
func (r Region) End() {
	if r.k == nil {
		return
	}
	end := r.k.tr.now()
	r.k.mu.Lock()
	ev := &r.k.events[r.idx]
	ev.dur = end - ev.start
	if ev.dur < 0 {
		ev.dur = 0
	}
	if ev.depth == 0 {
		r.k.busy += ev.dur
	}
	// Spans close LIFO per owner; scan from the innermost in case an
	// outer Region was ended out of order.
	for i := len(r.k.open) - 1; i >= 0; i-- {
		if r.k.open[i] == r.idx {
			r.k.open = append(r.k.open[:i], r.k.open[i+1:]...)
			break
		}
	}
	r.k.mu.Unlock()
}

// snapshotEvents copies the track's recorded events.
func (k *Track) snapshotEvents() []traceEvent {
	k.mu.Lock()
	out := append([]traceEvent(nil), k.events...)
	k.mu.Unlock()
	return out
}

// status reads the track's live aggregates: closed-span count, busy
// nanoseconds, and the innermost open span's name ("" when idle).
func (k *Track) status() (spans int, busy int64, open string) {
	k.mu.Lock()
	for i := range k.events {
		if k.events[i].dur >= 0 {
			spans++
		}
	}
	busy = k.busy
	if n := len(k.open); n > 0 {
		open = k.events[k.open[n-1]].name
	}
	k.mu.Unlock()
	return spans, busy, open
}

// counterSample is one recorded point on a counter track.
type counterSample struct {
	at    int64
	value int64
}

// Counter is one numeric track: recorded samples that become the
// exported counter timeline, plus the latest sample as a live atomic
// value the monitor reads while the engine records.
type Counter struct {
	tr   *Trace
	name string
	v    atomic.Int64

	mu      sync.Mutex
	samples []counterSample
}

// Value reads the live value; 0 on a nil counter.
//
// texlint:hotpath
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Sample records value as the counter's current reading (say, "frames
// of spec S replayed") and makes it the live value.
func (c *Counter) Sample(value int64) {
	if c == nil {
		return
	}
	c.v.Store(value)
	at := c.tr.now()
	c.mu.Lock()
	c.samples = append(c.samples, counterSample{at: at, value: value})
	c.mu.Unlock()
}

// snapshotSamples copies the counter's recorded samples.
func (c *Counter) snapshotSamples() []counterSample {
	c.mu.Lock()
	out := append([]counterSample(nil), c.samples...)
	c.mu.Unlock()
	return out
}

// snapshotTracks returns the registered tracks sorted by name.
func (t *Trace) snapshotTracks() []*Track {
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].name < tracks[j].name })
	return tracks
}

// snapshotCounters returns the registered counters sorted by name.
func (t *Trace) snapshotCounters() []*Counter {
	t.mu.Lock()
	counters := append([]*Counter(nil), t.counters...)
	t.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	return counters
}
