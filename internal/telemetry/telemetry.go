// Package telemetry ("texscope") is the simulator's deterministic
// observability layer. The paper's entire methodology is measurement —
// working sets, hit rates and download bandwidth per frame (§3.2, §4) —
// and this package surfaces those quantities *inside* a run instead of
// only as end-of-run aggregates. It has four parts:
//
//   - a per-frame metric stream: an Emitter interface with JSONL and CSV
//     sinks that receives one FrameMetrics record per simulated frame and
//     per cache configuration, in a deterministic frame-major, spec-minor
//     order;
//   - textrace: the one span and counter registry (textrace.go), recorded
//     through an injectable monotonic Clock, so tests drive a FakeClock
//     and stay deterministic while production runs confine wall-clock
//     data to sidecar files that never feed simulation output. It
//     aggregates into a per-phase Report, exports Chrome trace_event
//     JSON, and is served live by the Monitor;
//   - a reuse-distance histogram collector: an O(log n) tree-based stack
//     distance counter over L2 block addresses (see reuse.go);
//   - a run manifest: environment and configuration fingerprints, plus
//     the textrace phase table, that make every results file traceable
//     to the run that produced it.
//
// Everything here is standard library only. The simulator side of the
// wiring lives in internal/core; the rule is that telemetry may observe
// the simulation but must never feed back into it.
//
// This package is the only one allowlisted for texlint's determinism
// analyzer (texlint.conf.json): WallClock legitimately reads the wall
// clock, and the allowlist confines that privilege to this package — a
// time.Now anywhere else in the module still fails the lint suite.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// FrameMetrics is one frame of one cache configuration, flattened to
// plain counters so every sink can serialise it without reflection.
// Workload and Spec identify the run ("" Spec for single-configuration
// runs); Frame is the zero-based frame index within it.
type FrameMetrics struct {
	Workload string
	Spec     string
	Frame    int
	// Pixels is the textured pixels rasterized this frame.
	Pixels int64
	// L1Accesses equals the texel references presented to the hierarchy.
	L1Accesses int64
	L1Misses   int64
	// L2 classification counts (zero without an L2).
	L2FullHits    int64
	L2PartialHits int64
	L2FullMisses  int64
	L2Evictions   int64
	// L2SearchSteps is the clock-hand march length accumulated over the
	// frame's victim searches; L2MaxSearch the worst single search so far.
	L2SearchSteps int64
	L2MaxSearch   int
	TLBLookups    int64
	TLBHits       int64
	// Byte counters follow Figure 7: HostBytes crosses AGP/system memory,
	// L2ReadBytes is L2->L1 fills, L2WriteBytes host->L2 downloads.
	HostBytes    int64
	L2ReadBytes  int64
	L2WriteBytes int64
}

// Emitter consumes the per-frame metric stream. Implementations need not
// be safe for concurrent use: the simulator replays each finished run
// into it from one goroutine, in a deterministic frame-major,
// spec-minor order.
type Emitter interface {
	Frame(m FrameMetrics)
}

// jsonlLine writes one record as a single JSON object line; field order
// is fixed so output is byte-stable across runs and Go versions.
func jsonlLine(w io.Writer, m FrameMetrics) error {
	_, err := fmt.Fprintf(w,
		`{"workload":%q,"spec":%q,"frame":%d,"pixels":%d,`+
			`"l1_accesses":%d,"l1_misses":%d,`+
			`"l2_full_hits":%d,"l2_partial_hits":%d,"l2_full_misses":%d,`+
			`"l2_evictions":%d,"l2_search_steps":%d,"l2_max_search":%d,`+
			`"tlb_lookups":%d,"tlb_hits":%d,`+
			`"host_bytes":%d,"l2_read_bytes":%d,"l2_write_bytes":%d}`+"\n",
		m.Workload, m.Spec, m.Frame, m.Pixels,
		m.L1Accesses, m.L1Misses,
		m.L2FullHits, m.L2PartialHits, m.L2FullMisses,
		m.L2Evictions, m.L2SearchSteps, m.L2MaxSearch,
		m.TLBLookups, m.TLBHits,
		m.HostBytes, m.L2ReadBytes, m.L2WriteBytes)
	return err
}

// JSONL streams one JSON object per line. Errors are sticky and surfaced
// through Err, so the per-frame path stays a single call.
type JSONL struct {
	w   io.Writer
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Frame emits one record.
func (s *JSONL) Frame(m FrameMetrics) {
	if s.err != nil {
		return
	}
	s.err = jsonlLine(s.w, m)
}

// Err returns the first write error, if any.
func (s *JSONL) Err() error { return s.err }

// csvHeader is the CSV column order, matching the JSONL field order.
const csvHeader = "workload,spec,frame,pixels," +
	"l1_accesses,l1_misses," +
	"l2_full_hits,l2_partial_hits,l2_full_misses," +
	"l2_evictions,l2_search_steps,l2_max_search," +
	"tlb_lookups,tlb_hits," +
	"host_bytes,l2_read_bytes,l2_write_bytes\n"

// CSV streams records as comma-separated rows under a fixed header.
type CSV struct {
	w      io.Writer
	err    error
	header bool
}

// NewCSV returns a CSV sink writing to w. The header row is emitted
// before the first record.
func NewCSV(w io.Writer) *CSV { return &CSV{w: w} }

// Frame emits one row.
func (s *CSV) Frame(m FrameMetrics) {
	if s.err != nil {
		return
	}
	if !s.header {
		s.header = true
		if _, s.err = io.WriteString(s.w, csvHeader); s.err != nil {
			return
		}
	}
	_, s.err = fmt.Fprintf(s.w,
		"%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		m.Workload, m.Spec, m.Frame, m.Pixels,
		m.L1Accesses, m.L1Misses,
		m.L2FullHits, m.L2PartialHits, m.L2FullMisses,
		m.L2Evictions, m.L2SearchSteps, m.L2MaxSearch,
		m.TLBLookups, m.TLBHits,
		m.HostBytes, m.L2ReadBytes, m.L2WriteBytes)
}

// Err returns the first write error, if any.
func (s *CSV) Err() error { return s.err }

// CreateMetrics creates the metric stream file at path, as the CLIs'
// -metrics flag names it: CSV when the path ends in ".csv", JSONL
// otherwise, written through a buffer. The returned close function
// reports, in order, the sink's first write error, the flush's and the
// file's close; it closes the file in every case.
func CreateMetrics(path string) (Emitter, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	var sink Emitter
	var sinkErr func() error
	if strings.HasSuffix(path, ".csv") {
		s := NewCSV(bw)
		sink, sinkErr = s, s.Err
	} else {
		s := NewJSONL(bw)
		sink, sinkErr = s, s.Err
	}
	return sink, func() error {
		if err := sinkErr(); err != nil {
			_ = f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// Buffer records the stream in memory; tests use it to assert on emitted
// records directly.
type Buffer struct {
	Records []FrameMetrics
}

// Frame appends one record.
func (b *Buffer) Frame(m FrameMetrics) { b.Records = append(b.Records, m) }

// Replay re-emits every buffered record into e, in order.
func (b *Buffer) Replay(e Emitter) {
	for _, m := range b.Records {
		e.Frame(m)
	}
}

// RunTotals aggregates a metric stream for the run manifest.
type RunTotals struct {
	FrameRecords int64 `json:"frame_records"`
	TexelRefs    int64 `json:"texel_refs"`
	L1Misses     int64 `json:"l1_misses"`
	HostBytes    int64 `json:"host_bytes"`
	L2ReadBytes  int64 `json:"l2_read_bytes"`
	L2WriteBytes int64 `json:"l2_write_bytes"`
}

// Totals is an Emitter accumulating RunTotals.
type Totals struct {
	T RunTotals
}

// Frame accumulates one record.
func (t *Totals) Frame(m FrameMetrics) {
	t.T.FrameRecords++
	t.T.TexelRefs += m.L1Accesses
	t.T.L1Misses += m.L1Misses
	t.T.HostBytes += m.HostBytes
	t.T.L2ReadBytes += m.L2ReadBytes
	t.T.L2WriteBytes += m.L2WriteBytes
}

// Tee duplicates the stream to every given emitter, in argument order.
func Tee(emitters ...Emitter) Emitter { return teeEmitter(emitters) }

type teeEmitter []Emitter

func (t teeEmitter) Frame(m FrameMetrics) {
	for _, e := range t {
		e.Frame(m)
	}
}
