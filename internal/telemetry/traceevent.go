// Chrome trace_event export for textrace registries: the JSON object
// format ({"traceEvents":[...]}) that Perfetto and chrome://tracing
// open directly — one thread per track with the clock's timestamps in
// microseconds, and one counter series per counter track.
package telemetry

import (
	"fmt"
	"io"
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

// WriteChromeTrace writes the run as trace_event JSON: one thread per
// track in name order with its events in recorded order, then every
// counter's samples in recorded order. A nil trace writes an empty
// (still valid) document.
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
	tid := 0
	for _, k := range t.snapshotTracks() {
		events := k.snapshotEvents()
		if len(events) == 0 {
			continue
		}
		tid++
		cw.emitf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			tid, k.name)
		for _, ev := range events {
			cw.emitSpan(tid, ev.start, ev.dur, ev.name, ev.seq)
		}
	}
	for _, c := range t.snapshotCounters() {
		for _, s := range c.snapshotSamples() {
			cw.emitf(`{"ph":"C","pid":1,"tid":0,"ts":%s,"name":%q,"args":{"value":%d}}`,
				usec(s.at), c.name, s.value)
		}
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
func (cw *chromeWriter) emitSpan(tid int, ts, dur int64, name string, seq int64) {
	if dur < 0 {
		dur = 0
	}
	cw.emitf(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{"seq":%d}}`,
		tid, usec(ts), usec(dur), name, seq)
}
