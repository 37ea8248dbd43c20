package trace

import (
	"bytes"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the decoder, through ReplayBytes and
// through ReplayFrames read whole, one byte at a time, in halves and split
// in two at every offset. Malformed streams must produce an error (or
// succeed), never a panic or unbounded memory growth, and every read gives
// the frame count, events and error text of the whole slice.
func FuzzReplay(f *testing.F) {
	// Seed with a valid stream.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(3, 100, 200, 2)
	w.Texel(3, 101, 200, 2)
	w.Texel(9, 0, 0, 0)
	w.EndFrame(7)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TXTR"))
	f.Add([]byte{'T', 'X', 'T', 'R', 1, 0x01, 0x04, 0xFF})
	f.Add([]byte{'T', 'X', 'T', 'R', 1, 0x01, 0x05, 0x80, 0x80, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		agreeEverySplit(t, data)
	})
}

// FuzzShardChunks reads a stream through ReplayFrames in the fuzzer's
// chunks: each byte of pieces is the length of the next chunk, and the
// rest of data is the last. Every chunking gives the frame count, events
// and error text of ReplayBytes on the whole slice.
func FuzzShardChunks(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.BeginFrame()
	w.Texel(3, 10, 10, 0)
	w.Texel(3, 11, 10, 0)
	w.EndFrame(4)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), []byte{7})
	f.Add([]byte("TXTR\x01"), []byte{2})

	f.Fuzz(func(t *testing.T, data, pieces []byte) {
		var cuts []int
		at := 0
		for _, p := range pieces {
			if at += int(p); at >= len(data) {
				break
			}
			cuts = append(cuts, at)
		}
		agree(t, "chunks", data, &chunkReader{data: data, cuts: cuts})
	})
}

// FuzzRoundTrip checks that any sequence of well-formed writer calls
// decodes back to exactly the written events.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, spec []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		type ev struct {
			tid     uint32
			u, v, m int
		}
		var want []ev
		w.BeginFrame()
		for i := 0; i+3 < len(spec); i += 4 {
			e := ev{
				tid: uint32(spec[i]),
				u:   int(spec[i+1]) * 7,
				v:   int(spec[i+2]) * 13,
				m:   int(spec[i+3]) % 12,
			}
			want = append(want, e)
			w.Texel(e.tid, e.u, e.v, e.m)
		}
		w.EndFrame(int64(len(want)))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		data := buf.Bytes()
		var got []ev
		h := handlerFuncs{
			texel: func(tid uint32, u, v, m int) {
				got = append(got, ev{tid, u, v, m})
			},
		}
		if _, err := ReplayFrames(bytes.NewReader(data), h, 0); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("events: got %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		// The slice decoder must reproduce the identical event sequence.
		var got2 []ev
		h2 := handlerFuncs{
			texel: func(tid uint32, u, v, m int) {
				got2 = append(got2, ev{tid, u, v, m})
			},
		}
		if _, err := ReplayBytes(data, h2); err != nil {
			t.Fatal(err)
		}
		if len(got2) != len(want) {
			t.Fatalf("ReplayBytes events: got %d, want %d", len(got2), len(want))
		}
		for i := range want {
			if got2[i] != want[i] {
				t.Fatalf("ReplayBytes event %d: got %+v, want %+v", i, got2[i], want[i])
			}
		}
	})
}

// handlerFuncs adapts closures to Handler for tests.
type handlerFuncs struct {
	texel func(tid uint32, u, v, m int)
}

func (handlerFuncs) BeginFrame() {}

func (h handlerFuncs) Texel(tid uint32, u, v, m int) {
	if h.texel != nil {
		h.texel(tid, u, v, m)
	}
}

func (handlerFuncs) EndFrame(pixels int64) {}
