package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

// addCounters folds per-frame counter deltas back into a running total.
// Sub is fieldwise subtraction, so a + b == a - (0 - b); MaxSearch is not
// additive (per-frame values carry the running maximum) and is patched by
// the caller.
func addCounters(a, b cache.Counters) cache.Counters {
	var zero cache.Counters
	return a.Sub(zero.Sub(b))
}

func TestReplayTraceHonorsFrameLimit(t *testing.T) {
	cfg := withL2(testCfg(), 2)
	cfg.Frames = 8

	direct, err := Oracle(workload.Village(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := RecordTrace(workload.Village(), cfg, &buf); err != nil {
		t.Fatal(err)
	}

	limited := cfg
	limited.Frames = 3
	replayed, err := ReplayTrace(&buf, workload.Village().Scene.Textures, limited)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Frames) != 3 {
		t.Fatalf("replayed frames = %d, want 3", len(replayed.Frames))
	}
	var want cache.Counters
	for i := 0; i < 3; i++ {
		if replayed.Frames[i].Counters != direct.Frames[i].Counters {
			t.Errorf("frame %d counters differ:\nreplay %+v\ndirect %+v",
				i, replayed.Frames[i].Counters, direct.Frames[i].Counters)
		}
		want = addCounters(want, direct.Frames[i].Counters)
	}
	want.L2.MaxSearch = direct.Frames[2].Counters.L2.MaxSearch
	if replayed.Totals != want {
		t.Errorf("truncated totals = %+v, want %+v", replayed.Totals, want)
	}
}

// TestReplayTraceRejectsSmallL2Tile: the replay's L2 sub-block is the 4x4
// L1 tile, so a layout that validates with its own 2x2 sub-block but has
// 2x2 tiles is an error, not a panic.
func TestReplayTraceRejectsSmallL2Tile(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 1
	var buf bytes.Buffer
	if _, err := RecordTrace(workload.Village(), cfg, &buf); err != nil {
		t.Fatal(err)
	}
	small := withL2(cfg, 2)
	small.L2.Layout = texture.TileLayout{L2Size: 2, L1Size: 2}
	_, err := ReplayTrace(&buf, workload.Village().Scene.Textures, small)
	if err == nil || !strings.Contains(err.Error(), "L2 tile 2 smaller than L1 tile 4") {
		t.Errorf("err = %v, want the layout's error", err)
	}
}

// hostileTrace encodes a single-frame stream containing one reference,
// bypassing any validation the simulator applies while recording.
func hostileTrace(t testing.TB, tid uint32, u, v, m int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.BeginFrame()
	w.Texel(0, 0, 0, 0) // a valid reference first: failure must latch later
	w.Texel(tid, u, v, m)
	w.EndFrame(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestReplayTraceRejectsHostileStreams(t *testing.T) {
	set := workload.Village().Scene.Textures
	cfg := withL2(testCfg(), 2)
	cases := []struct {
		name string
		tid  uint32
		u, v int
		m    int
		want string
	}{
		{"tid out of range", uint32(set.Len()), 0, 0, 0, "texture id out of range"},
		{"tid far out of range", 1 << 30, 0, 0, 0, "texture id out of range"},
		{"negative level", 0, 0, 0, -1, "MIP level out of range"},
		{"level too deep", 0, 0, 0, 99, "MIP level out of range"},
		{"u outside extent", 0, 1 << 20, 0, 0, "texel coordinate outside level extent"},
		{"negative v", 0, 0, -5, 0, "texel coordinate outside level extent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := hostileTrace(t, tc.tid, tc.u, tc.v, tc.m)
			res, err := ReplayTrace(buf, set, cfg)
			if err == nil {
				t.Fatalf("hostile stream accepted: %+v", res.Totals)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "invalid reference") {
				t.Errorf("err = %q, want the offending reference described", err)
			}
		})
	}
}

// A trace cut short is corrupt, not a clean end: the error must not match
// io.EOF, and it carries the decoder's description of the cut and where
// it is: the offset of the operation cut, or the stream's length when the
// cut falls between operations.
func TestReplayTraceRejectsTruncatedStreams(t *testing.T) {
	set := workload.Village().Scene.Textures
	cfg := withL2(testCfg(), 2)
	cases := []struct {
		name, data, want string
	}{
		{"cut after an opcode", "TXTR\x01\x01\x02", "trace: bad uvarint at byte 6"},
		{"cut inside a sample's operand", "TXTR\x01\x01\x04\x80", "trace: bad varint at byte 6"},
		{"cut between operations in a frame", "TXTR\x01\x01\x02\x00", "trace: truncated inside a frame at byte 8"},
		{"empty stream", "", "trace: short header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReplayTrace(strings.NewReader(tc.data), set, cfg)
			if err == nil || errors.Is(err, io.EOF) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want a non-EOF error containing %q", err, tc.want)
			}
		})
	}
}

// failAfterWriter accepts limit bytes, then refuses: the captured prefix
// models what actually reached a failing disk.
type failAfterWriter struct {
	buf   bytes.Buffer
	limit int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.buf.Len()+len(p) > w.limit {
		room := w.limit - w.buf.Len()
		if room > 0 {
			w.buf.Write(p[:room])
		}
		return room, errors.New("sink full")
	}
	w.buf.Write(p)
	return len(p), nil
}

func TestRecordTraceReportsWrittenFrames(t *testing.T) {
	cfg := testCfg()
	cfg.Width, cfg.Height = 128, 96
	cfg.Frames = 6

	// Learn the stream size, then replay against a sink that fails at
	// roughly 40% of it — mid-run, after at least one complete frame.
	var probe bytes.Buffer
	frames, err := RecordTrace(workload.Village(), cfg, &probe)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 6 {
		t.Fatalf("clean record reported %d frames, want 6", frames)
	}

	sink := &failAfterWriter{limit: probe.Len() * 2 / 5}
	frames, err = RecordTrace(workload.Village(), cfg, sink)
	if err == nil {
		t.Fatal("failing sink not reported")
	}
	if frames < 1 || frames >= 6 {
		t.Errorf("frames = %d, want mid-run count in [1,5]", frames)
	}
	// The accepted prefix must still decode without panicking; its
	// complete frames are salvageable.
	decoded, _ := trace.ReplayBytes(sink.buf.Bytes(), discardTexels{})
	if decoded < 1 {
		t.Errorf("salvaged %d frames from the partial stream, want >= 1", decoded)
	}
}

// discardTexels drops replayed events.
type discardTexels struct{}

func (discardTexels) BeginFrame()                   {}
func (discardTexels) Texel(tid uint32, u, v, m int) {}
func (discardTexels) EndFrame(pixels int64)         {}

// FuzzReplayTrace feeds arbitrary byte streams through the full replay
// path — decoder, reference validation, address translation, cache
// hierarchy. Any input must produce a result or an error, never a panic.
func FuzzReplayTrace(f *testing.F) {
	cfg := testCfg()
	cfg.Width, cfg.Height = 64, 48
	cfg.Frames = 0
	set := workload.Village().Scene.Textures

	var valid bytes.Buffer
	w := trace.NewWriter(&valid)
	w.BeginFrame()
	w.Texel(0, 3, 5, 0)
	w.Texel(1, 0, 0, 2)
	w.EndFrame(9)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(hostileTrace(f, 1<<20, 0, 0, 0).Bytes())
	f.Add(hostileTrace(f, 0, 1<<20, 1<<20, 30).Bytes())
	f.Add([]byte{'T', 'X', 'T', 'R', 1, 0x01, 0x04, 0x81, 0x81})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReplayTrace(bytes.NewReader(data), set, cfg)
	})
}

// TestRecordReplayGolden is the end-to-end contract behind the sweep
// engine: a recorded stream replayed through a hierarchy reproduces the
// direct simulation exactly — totals and every per-frame delta — for both
// architectures on both camera-path styles, at the Bench scale the
// benchmarks use.
func TestRecordReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale golden run")
	}
	workloads := []struct {
		name   string
		make   func() *workload.Workload
		frames int
	}{
		{"village", workload.Village, 24},
		{"city", workload.City, 30},
	}
	for _, wl := range workloads {
		base := testCfg()
		base.Width, base.Height = 256, 192
		base.Frames = wl.frames

		var buf bytes.Buffer
		frames, err := RecordTrace(wl.make(), base, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if frames != wl.frames {
			t.Fatalf("%s: recorded %d frames, want %d", wl.name, frames, wl.frames)
		}
		data := buf.Bytes()

		for _, spec := range []struct {
			name string
			cfg  Config
		}{
			{"pull", base},
			{"l2-2m", withL2(base, 2)},
		} {
			direct, err := Oracle(wl.make(), spec.cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := ReplayTrace(bytes.NewReader(data), wl.make().Scene.Textures, spec.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Totals != replayed.Totals {
				t.Errorf("%s/%s: totals differ:\ndirect %+v\nreplay %+v",
					wl.name, spec.name, direct.Totals, replayed.Totals)
			}
			if len(direct.Frames) != len(replayed.Frames) {
				t.Fatalf("%s/%s: frame counts differ", wl.name, spec.name)
			}
			for i := range direct.Frames {
				if direct.Frames[i].Counters != replayed.Frames[i].Counters {
					t.Errorf("%s/%s: frame %d counters differ", wl.name, spec.name, i)
				}
				if direct.Frames[i].Pixels != replayed.Frames[i].Pixels {
					t.Errorf("%s/%s: frame %d pixels differ", wl.name, spec.name, i)
				}
			}
		}
	}
}
