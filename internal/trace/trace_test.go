package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// Event is one decoded texel reference.
type Event struct {
	TID     uint32
	U, V, M int
}

// recorder collects replayed events for comparison.
type recorder struct {
	frames  [][]Event
	pixels  []int64
	current []Event
}

func (r *recorder) BeginFrame() { r.current = nil }

func (r *recorder) Texel(tid uint32, u, v, m int) {
	r.current = append(r.current, Event{tid, u, v, m})
}

func (r *recorder) EndFrame(pixels int64) {
	r.frames = append(r.frames, r.current)
	r.pixels = append(r.pixels, pixels)
}

func TestRoundTripSimple(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(3, 10, 20, 0)
	w.Texel(3, 11, 20, 0)
	w.Texel(7, 0, 0, 2)
	w.EndFrame(42)
	w.BeginFrame()
	w.Texel(7, 1, 1, 2)
	w.EndFrame(7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var r recorder
	frames, err := ReplayFrames(&buf, &r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 2 {
		t.Fatalf("frames = %d, want 2", frames)
	}
	want0 := []Event{{3, 10, 20, 0}, {3, 11, 20, 0}, {7, 0, 0, 2}}
	if len(r.frames[0]) != len(want0) {
		t.Fatalf("frame 0 events = %d, want %d", len(r.frames[0]), len(want0))
	}
	for i, e := range want0 {
		if r.frames[0][i] != e {
			t.Errorf("frame 0 event %d = %+v, want %+v", i, r.frames[0][i], e)
		}
	}
	if r.pixels[0] != 42 || r.pixels[1] != 7 {
		t.Errorf("pixels = %v", r.pixels)
	}
	if r.frames[1][0] != (Event{7, 1, 1, 2}) {
		t.Errorf("frame 1 event = %+v", r.frames[1][0])
	}
}

func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want [][]Event
	var wantPix []int64
	for f := 0; f < 20; f++ {
		w.BeginFrame()
		var evs []Event
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			e := Event{
				TID: uint32(rng.Intn(50)),
				U:   rng.Intn(4096),
				V:   rng.Intn(4096),
				M:   rng.Intn(12),
			}
			evs = append(evs, e)
			w.Texel(e.TID, e.U, e.V, e.M)
		}
		pix := rng.Int63n(1 << 40)
		w.EndFrame(pix)
		want = append(want, evs)
		wantPix = append(wantPix, pix)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var r recorder
	frames, err := ReplayFrames(&buf, &r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 20 {
		t.Fatalf("frames = %d", frames)
	}
	for f := range want {
		if len(r.frames[f]) != len(want[f]) {
			t.Fatalf("frame %d: %d events, want %d", f, len(r.frames[f]), len(want[f]))
		}
		for i := range want[f] {
			if r.frames[f][i] != want[f][i] {
				t.Fatalf("frame %d event %d = %+v, want %+v",
					f, i, r.frames[f][i], want[f][i])
			}
		}
		if r.pixels[f] != wantPix[f] {
			t.Errorf("frame %d pixels = %d, want %d", f, r.pixels[f], wantPix[f])
		}
	}
}

func TestCompressionOfCoherentStream(t *testing.T) {
	// A coherent texture-space walk should cost only a few bytes per
	// sample thanks to delta coding.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	const n = 10000
	for i := 0; i < n; i++ {
		w.Texel(1, i%256, i/256, 0)
	}
	w.EndFrame(n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	perSample := float64(buf.Len()) / n
	if perSample > 4 {
		t.Errorf("coherent stream costs %.2f bytes/sample, want <= 4", perSample)
	}
}

func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Texel(0, 0, 0, 0) // outside frame
	if err := w.Close(); err == nil {
		t.Error("Texel outside frame not reported")
	}

	w = NewWriter(&buf)
	w.BeginFrame()
	w.BeginFrame()
	if err := w.Close(); err == nil {
		t.Error("nested BeginFrame not reported")
	}

	w = NewWriter(&buf)
	w.BeginFrame()
	if err := w.Close(); err == nil {
		t.Error("Close inside frame not reported")
	}
}

func TestReplayBadMagic(t *testing.T) {
	var r recorder
	if _, err := ReplayFrames(strings.NewReader("NOTATRACE"), &r, 0); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReplayFrames(strings.NewReader("TX"), &r, 0); err == nil {
		t.Error("short header accepted")
	}
}

func TestReplayTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(1, 5, 5, 0)
	w.EndFrame(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the frame body.
	cut := full[:len(full)-3]
	var r recorder
	if _, err := ReplayFrames(bytes.NewReader(cut), &r, 0); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestReplayUnknownOpcode(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'T', 'X', 'T', 'R', 1, 0xEE})
	var r recorder
	if _, err := ReplayFrames(&buf, &r, 0); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestNegativeDeltasAcrossFrames(t *testing.T) {
	// Deltas persist across frame boundaries; walking backwards must
	// reproduce exactly.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(0, 1000, 1000, 3)
	w.EndFrame(1)
	w.BeginFrame()
	w.Texel(0, 1, 2, 3)
	w.EndFrame(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var r recorder
	if _, err := ReplayFrames(&buf, &r, 0); err != nil {
		t.Fatal(err)
	}
	if r.frames[1][0] != (Event{0, 1, 2, 3}) {
		t.Errorf("event = %+v", r.frames[1][0])
	}
}

// errWriter fails after n bytes, exercising error propagation through the
// buffered encoder.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errFull
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

var errFull = &writerError{"disk full"}

type writerError struct{ msg string }

func (e *writerError) Error() string { return e.msg }

func TestWriterPropagatesIOError(t *testing.T) {
	// Small limit: the header may fit but frame data will not. The
	// encoder buffers, so the error surfaces at Close.
	w := NewWriter(&errWriter{n: 8})
	for f := 0; f < 100; f++ {
		w.BeginFrame()
		for i := 0; i < 100; i++ {
			w.Texel(uint32(i%7), i*3, i*5, i%9)
		}
		w.EndFrame(100)
	}
	if err := w.Close(); err == nil {
		t.Error("write error not propagated")
	}
	// EndFrame outside a frame is also an error even with I/O broken.
	w2 := NewWriter(&errWriter{n: 0})
	w2.EndFrame(1)
	if err := w2.Close(); err == nil {
		t.Error("EndFrame misuse not reported")
	}
}

func TestCloseMidFrameFlushesCompleteFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(1, 10, 10, 0)
	w.EndFrame(5)
	w.BeginFrame()
	w.Texel(1, 11, 10, 0)
	w.EndFrame(6)
	w.BeginFrame() // left open
	w.Texel(2, 0, 0, 1)
	err := w.Close()
	if err == nil {
		t.Fatal("Close inside a frame not reported")
	}
	// Idempotent: a second Close returns the same error, writes nothing.
	n := buf.Len()
	if err2 := w.Close(); err2 != err {
		t.Errorf("second Close = %v, want %v", err2, err)
	}
	if buf.Len() != n {
		t.Error("second Close wrote bytes")
	}
	// The flushed prefix still holds the two complete frames: a bounded
	// replay decodes them cleanly, an unbounded one reports truncation
	// only after delivering both.
	var r recorder
	frames, err := ReplayFrames(bytes.NewReader(buf.Bytes()), &r, 2)
	if err != nil || frames != 2 {
		t.Fatalf("bounded replay = (%d, %v), want (2, nil)", frames, err)
	}
	if r.pixels[0] != 5 || r.pixels[1] != 6 {
		t.Errorf("pixels = %v", r.pixels)
	}
	var r2 recorder
	frames, err = ReplayFrames(bytes.NewReader(buf.Bytes()), &r2, 0)
	if err == nil || frames != 2 {
		t.Errorf("unbounded replay = (%d, %v), want (2, truncation error)", frames, err)
	}
}

func TestCloseIdempotentOnSuccess(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(0, 0, 0, 0)
	w.EndFrame(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestReplayFramesLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for f := 0; f < 5; f++ {
		w.BeginFrame()
		w.Texel(0, f, f, 0)
		w.EndFrame(int64(f))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var r recorder
	frames, err := ReplayFrames(bytes.NewReader(data), &r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 3 || len(r.frames) != 3 {
		t.Fatalf("frames = %d (%d delivered), want 3", frames, len(r.frames))
	}
	// A limit at or past the stream end behaves like no limit.
	var r2 recorder
	if frames, err = ReplayFrames(bytes.NewReader(data), &r2, 9); err != nil || frames != 5 {
		t.Errorf("over-limit replay = (%d, %v), want (5, nil)", frames, err)
	}
	var r3 recorder
	if frames, err = ReplayFrames(bytes.NewReader(data), &r3, 0); err != nil || frames != 5 {
		t.Errorf("unlimited replay = (%d, %v), want (5, nil)", frames, err)
	}
}

// latchingHandler fails itself after a fixed number of frames, modelling a
// handler that validates events against external state.
type latchingHandler struct {
	recorder
	failAfter int
	err       error
}

func (h *latchingHandler) EndFrame(pixels int64) {
	h.recorder.EndFrame(pixels)
	if len(h.recorder.frames) >= h.failAfter {
		h.err = errFull
	}
}

func (h *latchingHandler) ReplayErr() error { return h.err }

func TestFailingHandlerAbortsReplay(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for f := 0; f < 6; f++ {
		w.BeginFrame()
		w.Texel(0, f, 0, 0)
		w.EndFrame(1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	h := &latchingHandler{failAfter: 2}
	frames, err := ReplayFrames(bytes.NewReader(data), h, 0)
	if err != errFull {
		t.Fatalf("err = %v, want the handler's error", err)
	}
	if frames != 2 || len(h.recorder.frames) != 2 {
		t.Errorf("frames = %d (%d delivered), want 2", frames, len(h.recorder.frames))
	}
	hb := &latchingHandler{failAfter: 2}
	frames, err = ReplayBytes(data, hb)
	if err != errFull || frames != 2 {
		t.Errorf("ReplayBytes = (%d, %v), want (2, handler error)", frames, err)
	}
}

// TestReplayBytesMatchesReplay drives both entry points over the same
// streams — valid, truncated, and corrupted — read whole, a byte at a
// time and in halves, and demands identical frame counts, events and
// error text.
func TestReplayBytesMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for f := 0; f < 10; f++ {
		w.BeginFrame()
		for i := 0; i < 50+rng.Intn(50); i++ {
			w.Texel(uint32(rng.Intn(20)), rng.Intn(2048), rng.Intn(2048), rng.Intn(11))
		}
		w.EndFrame(rng.Int63n(1 << 30))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	inputs := [][]byte{
		valid,
		valid[:len(valid)-4],                     // truncated mid-frame
		valid[:3],                                // short header
		append([]byte("XXTR\x01"), valid[5:]...), // bad magic
		{},
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] = 0xEE
	inputs = append(inputs, corrupt)

	for _, data := range inputs {
		agreeReads(t, data)
	}
}
