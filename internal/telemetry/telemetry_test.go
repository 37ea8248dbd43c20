package telemetry

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleMetrics() []FrameMetrics {
	return []FrameMetrics{
		{
			Workload: "village", Spec: "pull-16k", Frame: 0, Pixels: 100,
			L1Accesses: 400, L1Misses: 40,
			L2FullHits: 30, L2PartialHits: 5, L2FullMisses: 5,
			L2Evictions: 2, L2SearchSteps: 12, L2MaxSearch: 4,
			TLBLookups: 40, TLBHits: 39,
			HostBytes: 2048, L2ReadBytes: 1280, L2WriteBytes: 2048,
		},
		{Workload: "village", Spec: "l2-2m", Frame: 1},
	}
}

func TestJSONLGolden(t *testing.T) {
	var sb strings.Builder
	s := NewJSONL(&sb)
	for _, m := range sampleMetrics() {
		s.Frame(m)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"workload":"village","spec":"pull-16k","frame":0,"pixels":100,` +
		`"l1_accesses":400,"l1_misses":40,` +
		`"l2_full_hits":30,"l2_partial_hits":5,"l2_full_misses":5,` +
		`"l2_evictions":2,"l2_search_steps":12,"l2_max_search":4,` +
		`"tlb_lookups":40,"tlb_hits":39,` +
		`"host_bytes":2048,"l2_read_bytes":1280,"l2_write_bytes":2048}` + "\n" +
		`{"workload":"village","spec":"l2-2m","frame":1,"pixels":0,` +
		`"l1_accesses":0,"l1_misses":0,` +
		`"l2_full_hits":0,"l2_partial_hits":0,"l2_full_misses":0,` +
		`"l2_evictions":0,"l2_search_steps":0,"l2_max_search":0,` +
		`"tlb_lookups":0,"tlb_hits":0,` +
		`"host_bytes":0,"l2_read_bytes":0,"l2_write_bytes":0}` + "\n"
	if sb.String() != want {
		t.Errorf("JSONL output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestCSVGolden(t *testing.T) {
	var sb strings.Builder
	s := NewCSV(&sb)
	for _, m := range sampleMetrics() {
		s.Frame(m)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want := csvHeader +
		"village,pull-16k,0,100,400,40,30,5,5,2,12,4,40,39,2048,1280,2048\n" +
		"village,l2-2m,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
	if sb.String() != want {
		t.Errorf("CSV output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// failWriter fails every write after the first n bytes worth of calls.
type failWriter struct{ calls int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.calls > 0 {
		return 0, errors.New("disk full")
	}
	w.calls++
	return len(p), nil
}

func TestStickyErrors(t *testing.T) {
	j := NewJSONL(&failWriter{calls: 1}) // fail immediately
	j.Frame(FrameMetrics{})
	if j.Err() == nil {
		t.Error("JSONL did not surface the write error")
	}
	j.Frame(FrameMetrics{}) // must not panic or clear the error
	if j.Err() == nil {
		t.Error("JSONL error was not sticky")
	}

	c := NewCSV(&failWriter{}) // header succeeds, first row fails
	c.Frame(FrameMetrics{})
	if c.Err() == nil {
		t.Error("CSV did not surface the write error")
	}
	c.Frame(FrameMetrics{})
	if c.Err() == nil {
		t.Error("CSV error was not sticky")
	}

	c2 := NewCSV(&failWriter{calls: 1}) // header itself fails
	c2.Frame(FrameMetrics{})
	if c2.Err() == nil {
		t.Error("CSV did not surface the header write error")
	}
}

// TestCreateMetrics: the -metrics file holds the CSV or JSONL sink's
// bytes by the path's suffix, and every write, flush or create failure
// is reported.
func TestCreateMetrics(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		sink func(io.Writer) Emitter
	}{
		{"m.csv", func(w io.Writer) Emitter { return NewCSV(w) }},
		{"m.jsonl", func(w io.Writer) Emitter { return NewJSONL(w) }},
		{"m.csv.json", func(w io.Writer) Emitter { return NewJSONL(w) }},
	} {
		path := filepath.Join(dir, tc.name)
		e, closeMetrics, err := CreateMetrics(path)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		ref := tc.sink(&want)
		for _, m := range sampleMetrics() {
			e.Frame(m)
			ref.Frame(m)
		}
		if err := closeMetrics(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Errorf("%s holds:\n%s\nwant:\n%s", tc.name, got, want.String())
		}
	}

	if _, _, err := CreateMetrics(filepath.Join(dir, "missing", "m.jsonl")); err == nil {
		t.Error("a metrics path in a missing directory was accepted")
	}

	// On a full disk the error surfaces from the flush of a short
	// stream, and from the sink itself once a long one overflows the
	// buffer.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("/dev/full: %v", err)
	}
	for _, records := range []int{1, 1000} {
		e, closeMetrics, err := CreateMetrics("/dev/full")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			e.Frame(sampleMetrics()[0])
		}
		sinkErr := e.(*JSONL).Err()
		if (sinkErr != nil) != (records > 1) {
			t.Errorf("%d records: sink error %v", records, sinkErr)
		}
		if err := closeMetrics(); err == nil || sinkErr != nil && err != sinkErr {
			t.Errorf("%d records on a full disk: close returned %v, sink error %v", records, err, sinkErr)
		}
	}
}

func TestBufferReplayAndTee(t *testing.T) {
	src := sampleMetrics()
	var buf Buffer
	var tot Totals
	tee := Tee(&buf, &tot)
	for _, m := range src {
		tee.Frame(m)
	}
	if !reflect.DeepEqual(buf.Records, src) {
		t.Errorf("Buffer records = %+v, want %+v", buf.Records, src)
	}
	var replayed Buffer
	buf.Replay(&replayed)
	if !reflect.DeepEqual(replayed.Records, src) {
		t.Errorf("Replay records = %+v, want %+v", replayed.Records, src)
	}
	want := RunTotals{
		FrameRecords: 2, TexelRefs: 400, L1Misses: 40,
		HostBytes: 2048, L2ReadBytes: 1280, L2WriteBytes: 2048,
	}
	if tot.T != want {
		t.Errorf("totals = %+v, want %+v", tot.T, want)
	}
}
