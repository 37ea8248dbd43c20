// Span timing: nestable phases recorded through an injectable monotonic
// clock. The simulator's comparison engines open spans around their
// phases (render, and the -fast engine's exact-fallback, model and
// tlb-patch); tests inject a FakeClock so recorded durations are a pure
// function of the test, and production runs use WallClock, whose
// readings are confined to telemetry sidecar files and never feed
// simulation output.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Clock yields monotonic nanoseconds. Implementations must be safe for
// use from a single goroutine; Tracer serialises access internally.
type Clock interface {
	Now() int64
}

// WallClock reads the process monotonic clock, reported relative to its
// construction. This is the one sanctioned wall-clock source in the
// module (the texlint determinism allowlist covers only this package).
type WallClock struct {
	start time.Time
}

// NewWallClock starts a wall clock at zero.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns nanoseconds since construction.
func (c *WallClock) Now() int64 { return time.Since(c.start).Nanoseconds() }

// FakeClock is a deterministic Clock for tests: Now returns the current
// reading and then advances it by Step, and Advance moves it explicitly.
type FakeClock struct {
	NS   int64
	Step int64
}

// Now returns the current reading and advances by Step.
func (c *FakeClock) Now() int64 {
	v := c.NS
	c.NS += c.Step
	return v
}

// Advance moves the clock forward by d nanoseconds.
func (c *FakeClock) Advance(d int64) { c.NS += d }

// Span is one completed phase. Depth is the nesting level at which the
// span was opened (0 = top level); Start and Dur are clock nanoseconds.
type Span struct {
	Name  string `json:"name"`
	Depth int    `json:"depth"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// Tracer records spans. It is safe for concurrent use. A nil
// *Tracer is valid and records nothing, so instrumented code needs no
// nil checks at every site.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	depth int
	spans []Span
}

// NewTracer returns a tracer reading time from clock.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		panic("telemetry: NewTracer requires a clock")
	}
	return &Tracer{clock: clock}
}

// ActiveSpan is an open span; End closes it.
type ActiveSpan struct {
	t     *Tracer
	name  string
	depth int
	start int64
}

// Start opens a span at the current nesting depth. On a nil tracer it
// returns nil, and End on a nil span is a no-op.
func (t *Tracer) Start(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &ActiveSpan{t: t, name: name, depth: t.depth, start: t.clock.Now()}
	t.depth++
	return s
}

// End closes the span, recording its duration.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.depth > 0 {
		t.depth--
	}
	t.spans = append(t.spans, Span{
		Name:  s.name,
		Depth: s.depth,
		Start: s.start,
		Dur:   t.clock.Now() - s.start,
	})
}

// Spans returns the completed spans ordered by (Start, Depth, Name) —
// a stable presentation regardless of the order concurrent workers
// happened to close them in. A nil tracer yields nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.Name < b.Name
	})
	return out
}

// WriteJSON writes the spans as one JSON object per line (a sidecar
// stream, same shape as the metric stream).
func (t *Tracer) WriteJSON(w io.Writer) error {
	for _, s := range t.Spans() {
		if _, err := fmt.Fprintf(w,
			`{"name":%q,"depth":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
			s.Name, s.Depth, s.Start, s.Dur); err != nil {
			return err
		}
	}
	return nil
}
