// textrace: the concurrent, worker-attributed tracing registry. The
// texscope Tracer (span.go) records nestable phase spans with no worker
// identity; textrace records what every engine track is doing (the
// exact engine's render pass, the fast sweep's probe and model) — span
// tracks, counter tracks, and instant events for protocol edges (model
// refusals) — and exports the whole run as Chrome trace_event JSON (traceevent.go) that
// Perfetto or chrome://tracing opens directly.
//
// Two regimes share one recording API, selected by the injected clock:
//
//   - wall regime (WallClock or any other real clock): events carry real
//     timestamps and export on their physical tracks ("render",
//     "fast-probe"), showing true concurrency, stalls, stragglers;
//   - canonical regime (the clock implements DeterministicClock, as
//     FakeClock does): the export is a pure function of the logical work
//     performed — events regroup onto their logical tracks, timestamps
//     are virtual positions in canonical order, and scheduling-dependent
//     gauge samples are suppressed — so the exported bytes never depend
//     on goroutine scheduling.
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

// DeterministicClock marks a Clock whose readings are a pure function of
// call order rather than real time. A Trace built on such a clock
// records in the canonical regime: its export depends only on the
// logical events recorded, never on goroutine scheduling.
type DeterministicClock interface {
	DeterministicClock()
}

// DeterministicClock marks FakeClock as canonical: a trace driven by a
// FakeClock exports identical bytes however its recorders are scheduled.
func (*FakeClock) DeterministicClock() {}

// Trace is the registry of span tracks and counter tracks for one run.
// Track and Counter return one shared instance per name, so engine
// layers that cannot see each other (the exact engine, the fast
// sweep's probe and model) still land on the same timeline.
type Trace struct {
	clockMu sync.Mutex
	clock   Clock
	// canonical is set when clock implements DeterministicClock; it
	// switches the export regime and suppresses Gauge samples.
	canonical bool

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
	_, canonical := clock.(DeterministicClock)
	return &Trace{
		clock:     clock,
		canonical: canonical,
		tracksBy:  map[string]*Track{},
		countBy:   map[string]*Counter{},
	}
}

// Canonical reports whether the trace records in the canonical
// (deterministic-export) regime. False on a nil trace.
func (t *Trace) Canonical() bool { return t != nil && t.canonical }

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
// Counters are fully concurrent: any goroutine may Add, Set, Sample or
// Gauge. Nil trace, nil counter.
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

// Event kinds within a track.
const (
	evSpan uint8 = iota
	evInstant
)

// traceEvent is one recorded span or instant. logical names the logical
// track the event belongs to in the canonical export ("" = wall-only:
// the event is physical-schedule detail and is dropped from canonical
// output). seq is the event's deterministic ordering key within its
// logical track (typically a frame or spec index); arg is an optional
// label. dur is -1 while a span is open.
type traceEvent struct {
	kind    uint8
	depth   int
	logical string
	name    string
	arg     string
	seq     int64
	start   int64
	dur     int64
}

// Track is one physical span timeline. Events are recorded by a single
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

// Begin opens a span on the track. logical names the canonical-regime
// track ("" records a wall-only span); seq is the deterministic order
// key (frame index, spec index). Nil track: returns a no-op Region.
func (k *Track) Begin(logical, name string, seq int64) Region {
	if k == nil {
		return Region{}
	}
	start := k.tr.now()
	k.mu.Lock()
	idx := len(k.events)
	k.events = append(k.events, traceEvent{
		kind:    evSpan,
		depth:   len(k.open),
		logical: logical,
		name:    name,
		seq:     seq,
		start:   start,
		dur:     -1,
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

// Instant records a zero-duration event (a protocol edge, such as a
// model refusal). logical and seq follow Begin's contract;
// arg is an optional detail label. No-op on a nil track.
func (k *Track) Instant(logical, name string, seq int64, arg string) {
	if k == nil {
		return
	}
	start := k.tr.now()
	k.mu.Lock()
	k.events = append(k.events, traceEvent{
		kind:    evInstant,
		depth:   len(k.open),
		logical: logical,
		name:    name,
		arg:     arg,
		seq:     seq,
		start:   start,
	})
	k.mu.Unlock()
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
		if k.events[i].kind == evSpan && k.events[i].dur >= 0 {
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
	seq   int64
	at    int64
	value int64
}

// Counter is one numeric track: a live atomic value (Add/Set/Value, the
// allocation-free per-event path) plus recorded samples that become the
// exported counter timeline (Sample/Gauge).
type Counter struct {
	tr   *Trace
	name string
	v    atomic.Int64

	mu      sync.Mutex
	samples []counterSample
}

// Add adjusts the live value by d. Nil-safe and allocation-free: this is
// the per-event emit path instrumented code may call at high rate.
//
// texlint:hotpath
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Set replaces the live value.
//
// texlint:hotpath
func (c *Counter) Set(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
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

// Sample records value as the counter's reading at deterministic
// position seq, and makes it the live value. The value must itself be
// deterministic (a pure function of seq, like "frames of spec S
// replayed"): samples are exported in both regimes and are what the
// canonical byte-identity contract pins.
func (c *Counter) Sample(seq, value int64) {
	if c == nil {
		return
	}
	c.v.Store(value)
	at := c.tr.now()
	c.mu.Lock()
	c.samples = append(c.samples, counterSample{seq: seq, at: at, value: value})
	c.mu.Unlock()
}

// Gauge records the live value at position seq — a scheduling-dependent
// reading (queue depth, bytes in flight), so in the canonical regime it
// records nothing and the export stays parallelism-invariant.
func (c *Counter) Gauge(seq int64) {
	if c == nil || c.tr.canonical {
		return
	}
	c.Sample(seq, c.v.Load())
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
