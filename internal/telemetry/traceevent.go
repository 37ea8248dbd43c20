// Chrome trace_event export for textrace registries: the JSON object
// format ({"traceEvents":[...]}) that Perfetto and chrome://tracing
// open directly. Emission follows the regime the trace recorded in
// (textrace.go): the wall regime exports physical tracks with real
// microsecond timestamps; the canonical regime exports logical tracks
// with virtual position timestamps, a pure function of the recorded
// logical event multiset — identical bytes at every worker count.
package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// chromeWriter emits one trace_event JSON array with error-sticky
// comma/newline management, using fixed Fprintf field orders so equal
// event sets yield byte-equal output.
type chromeWriter struct {
	w   io.Writer
	n   int
	err error
}

func (cw *chromeWriter) emitf(format string, args ...interface{}) {
	if cw.err != nil {
		return
	}
	sep := "\n"
	if cw.n > 0 {
		sep = ",\n"
	}
	if _, err := io.WriteString(cw.w, sep); err != nil {
		cw.err = err
		return
	}
	_, cw.err = fmt.Fprintf(cw.w, format, args...)
	cw.n++
}

// usec renders nanoseconds as the decimal microseconds trace_event
// timestamps use, with fixed sub-microsecond precision.
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// WriteChromeTrace writes the run as trace_event JSON. A nil trace
// writes an empty (still valid) document.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	cw := &chromeWriter{w: w}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	cw.emitf(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"textrace"}}`)
	if t.canonical {
		t.emitCanonical(cw)
	} else {
		t.emitWall(cw)
	}
	if cw.err != nil {
		return cw.err
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// emitSpan writes one complete ("X") event. Open spans export with zero
// duration rather than being dropped: a live monitor snapshot should
// still show them.
func (cw *chromeWriter) emitSpan(tid int, ts, dur int64, name, arg string, seq int64) {
	if dur < 0 {
		dur = 0
	}
	if arg != "" {
		cw.emitf(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{"seq":%d,"detail":%q}}`,
			tid, usec(ts), usec(dur), name, seq, arg)
		return
	}
	cw.emitf(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{"seq":%d}}`,
		tid, usec(ts), usec(dur), name, seq)
}

// emitInstant writes one thread-scoped instant ("i") event.
func (cw *chromeWriter) emitInstant(tid int, ts int64, name, arg string, seq int64) {
	if arg != "" {
		cw.emitf(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":%q,"args":{"seq":%d,"detail":%q}}`,
			tid, usec(ts), name, seq, arg)
		return
	}
	cw.emitf(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":%q,"args":{"seq":%d}}`,
		tid, usec(ts), name, seq)
}

// emitWall exports the physical recording: one thread per track in name
// order, events in recorded order with their real timestamps, and every
// counter sample (explicit Samples and scheduling-dependent Gauges
// alike) in recorded order.
func (t *Trace) emitWall(cw *chromeWriter) {
	tracks := t.snapshotTracks()
	tid := 0
	for _, k := range tracks {
		events := k.snapshotEvents()
		if len(events) == 0 {
			continue
		}
		tid++
		cw.emitf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			tid, k.name)
		for _, ev := range events {
			if ev.kind == evInstant {
				cw.emitInstant(tid, ev.start, ev.name, ev.arg, ev.seq)
			} else {
				cw.emitSpan(tid, ev.start, ev.dur, ev.name, ev.arg, ev.seq)
			}
		}
	}
	for _, c := range t.snapshotCounters() {
		samples := c.snapshotSamples()
		for _, s := range samples {
			cw.emitf(`{"ph":"C","pid":1,"tid":0,"ts":%s,"name":%q,"args":{"value":%d}}`,
				usec(s.at), c.name, s.value)
		}
	}
}

// emitCanonical exports the logical recording: events regroup onto their
// logical tracks (wall-only events — logical "" — are dropped, as are
// still-open spans), order within a track is the deterministic
// (seq, kind, name, arg) key, and timestamps are virtual positions in
// that order. Counter timelines keep only explicit Samples, sorted by
// seq. Nothing here depends on which goroutine recorded what or when,
// so the bytes never depend on goroutine scheduling.
func (t *Trace) emitCanonical(cw *chromeWriter) {
	type canonEvent struct {
		track string
		ev    traceEvent
	}
	var all []canonEvent
	for _, k := range t.snapshotTracks() {
		for _, ev := range k.snapshotEvents() {
			if ev.logical == "" || (ev.kind == evSpan && ev.dur < 0) {
				continue
			}
			all = append(all, canonEvent{track: ev.logical, ev: ev})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.track != b.track {
			return a.track < b.track
		}
		if a.ev.seq != b.ev.seq {
			return a.ev.seq < b.ev.seq
		}
		if a.ev.kind != b.ev.kind {
			return a.ev.kind < b.ev.kind
		}
		if a.ev.name != b.ev.name {
			return a.ev.name < b.ev.name
		}
		return a.ev.arg < b.ev.arg
	})

	tid := 0
	pos := 0
	last := ""
	for i, ce := range all {
		if i == 0 || ce.track != last {
			tid++
			pos = 0
			last = ce.track
			cw.emitf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
				tid, ce.track)
		}
		// Virtual time: each event occupies a 2 µs slot in canonical
		// order; spans fill half their slot so nesting never overlaps.
		ts := int64(pos) * 2000
		pos++
		if ce.ev.kind == evInstant {
			cw.emitInstant(tid, ts, ce.ev.name, ce.ev.arg, ce.ev.seq)
		} else {
			cw.emitSpan(tid, ts, 1000, ce.ev.name, ce.ev.arg, ce.ev.seq)
		}
	}

	for _, c := range t.snapshotCounters() {
		samples := c.snapshotSamples()
		if len(samples) == 0 {
			continue
		}
		sort.Slice(samples, func(i, j int) bool {
			if samples[i].seq != samples[j].seq {
				return samples[i].seq < samples[j].seq
			}
			return samples[i].value < samples[j].value
		})
		for i, s := range samples {
			cw.emitf(`{"ph":"C","pid":1,"tid":0,"ts":%s,"name":%q,"args":{"value":%d}}`,
				usec(int64(i)*1000), c.name, s.value)
		}
	}
}
