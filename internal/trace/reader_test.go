package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// eventLog records the replayed event sequence for comparison.
type eventLog struct {
	events []Event
	pixels []int64
	begins int
}

func (l *eventLog) BeginFrame()       { l.begins++ }
func (l *eventLog) EndFrame(px int64) { l.pixels = append(l.pixels, px) }
func (l *eventLog) Texel(tid uint32, u, v, m int) {
	l.events = append(l.events, Event{TID: tid, U: u, V: v, M: m})
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// agree fails t unless ReplayFrames over r returns the frame count and
// error text, and delivers the events, that ReplayBytes does over data.
func agree(t *testing.T, what string, data []byte, r io.Reader) {
	t.Helper()
	var want, got eventLog
	wf, werr := ReplayBytes(data, &want)
	gf, gerr := ReplayFrames(r, &got, 0)
	if gf != wf || errText(gerr) != errText(werr) {
		t.Fatalf("%s, data %x: ReplayFrames = (%d, %v), ReplayBytes = (%d, %v)",
			what, data, gf, gerr, wf, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, data %x: event log diverged", what, data)
	}
}

// chunkReader returns data in pieces that end at the given cuts: no Read
// crosses a cut.
type chunkReader struct {
	data []byte
	off  int
	cuts []int // ascending offsets into data
}

func (r *chunkReader) Read(p []byte) (int, error) {
	for len(r.cuts) > 0 && r.cuts[0] <= r.off {
		r.cuts = r.cuts[1:]
	}
	end := len(r.data)
	if len(r.cuts) > 0 {
		end = r.cuts[0]
	}
	if r.off == end {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// agreeReads checks data read whole, one byte at a time and in halves.
func agreeReads(t *testing.T, data []byte) {
	t.Helper()
	agree(t, "whole", data, bytes.NewReader(data))
	agree(t, "one byte", data, iotest.OneByteReader(bytes.NewReader(data)))
	agree(t, "half", data, iotest.HalfReader(bytes.NewReader(data)))
}

// agreeEverySplit is agreeReads plus data split in two at every offset.
func agreeEverySplit(t *testing.T, data []byte) {
	t.Helper()
	agreeReads(t, data)
	for cut := 0; cut <= len(data); cut++ {
		agree(t, "one cut", data, &chunkReader{data: data, cuts: []int{cut}})
	}
}

// A valid stream split at every offset and at a sample of offset pairs
// decodes to the events of the whole slice.
func TestReplayFramesEveryCut(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(7, 100, 200, 1)
	w.Texel(7, 101, 200, 1)
	w.Texel(9, 5000, -3, 2) // large deltas: multi-byte varints to straddle
	w.Texel(9, 5001, -2, 2)
	w.EndFrame(42)
	w.BeginFrame()
	w.Texel(1, 0, 0, 0)
	w.EndFrame(7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReplayBytes(data, &eventLog{}); err != nil {
		t.Fatal(err)
	}

	agreeEverySplit(t, data)
	// Pairs of cuts, striding to keep the count sane.
	for a := 0; a <= len(data); a += 3 {
		for b := a; b <= len(data); b += 5 {
			agree(t, "two cuts", data, &chunkReader{data: data, cuts: []int{a, b}})
		}
	}
}

// Truncated and corrupt streams give ReplayBytes' error, at every cut.
func TestReplayFramesHostileAgreesWithBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(300, 70000, -70000, 3)
	w.EndFrame(9)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	after := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{magic}, parts...), nil) }
	cont := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64) // ten continuation bytes
	hostile := [][]byte{
		{},
		[]byte("TXT"),
		[]byte("WRONG"),
		after([]byte{0xEE}),                     // unknown opcode
		after([]byte{opPixels, 3}),              // frame end outside frame
		after([]byte{opSample, 2, 2}),           // sample outside frame
		after([]byte{opFrame, opFrame}),         // nested frame
		after([]byte{opTexture, 0x80}),          // truncated uvarint
		after([]byte{opFrame, opTexture}),       // cut after an opcode
		after([]byte{opFrame, opSample, 2}),     // cut between a sample's operands
		after([]byte{opLevel}, cont, []byte{1}), // overlong uvarint
		// The longest tail a refill holds undecided: a ten-byte operand
		// and ten continuation bytes of the next.
		after([]byte{opFrame, opSample}, cont[:9], []byte{1}, cont),
	}
	for i := 1; i < len(full); i++ {
		hostile = append(hostile, full[:i]) // every truncation point
	}

	for _, data := range hostile {
		agreeEverySplit(t, data)
	}
}

// A read that fails partway returns its error with the frames completed
// before it, not a truncation error for the operation it cut.
func TestReplayFramesReadError(t *testing.T) {
	record := func(frames int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for f := 0; f < frames; f++ {
			w.BeginFrame()
			w.Texel(2, 9000*f, 40, 1)
			w.EndFrame(5)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data, first := record(3), len(record(1))
	errX := errors.New("disk gone")

	for _, tc := range []struct {
		name   string
		prefix int
		frames int
	}{
		{"inside header", 3, 0},
		{"after header", len(magic), 0},
		// opFrame, opSample and the first byte of a three-byte delta.
		{"inside second frame's operand", first + 3, 1},
	} {
		var got eventLog
		r := io.MultiReader(bytes.NewReader(data[:tc.prefix]), iotest.ErrReader(errX))
		frames, err := ReplayFrames(r, &got, 0)
		if !errors.Is(err, errX) || frames != tc.frames || len(got.pixels) != tc.frames {
			t.Errorf("%s: ReplayFrames = (%d, %v) with %d frames delivered, want (%d, %v)",
				tc.name, frames, err, len(got.pixels), tc.frames, errX)
		}
	}
}
