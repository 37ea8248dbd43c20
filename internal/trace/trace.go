// Package trace defines a compact binary format for texel reference
// traces, enabling the trace-driven methodology of the paper: the
// rasterizer records the reference stream once, and the cache simulator
// replays it through many cache configurations without re-rendering.
//
// The format is a byte stream of opcodes with unsigned varint operands.
// Texel coordinates are delta-encoded (zigzag varints) against the
// previous sample, which compresses well because rasterization in scanline
// order produces strongly coherent texture-space walks.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes of the stream. A stream is a header followed by frames; each
// frame is opFrame, any number of state/sample ops, then opPixels closing
// the frame with its rasterized pixel count.
const (
	opFrame   = 0x01 // begin frame
	opTexture = 0x02 // set current texture id (uvarint)
	opLevel   = 0x03 // set current MIP level (uvarint)
	opSample  = 0x04 // texel at (last.u + zigzag, last.v + zigzag)
	opPixels  = 0x05 // end frame; operand = pixels rasterized (uvarint)
)

// magic identifies trace streams; the trailing byte is the version.
var magic = []byte{'T', 'X', 'T', 'R', 1}

// Writer encodes a reference stream.
type Writer struct {
	w        *bufio.Writer
	buf      [binary.MaxVarintLen64]byte
	curTID   uint32
	curM     int
	lastU    int
	lastV    int
	started  bool
	inFrame  bool
	closed   bool
	closeErr error
	err      error
}

// NewWriter begins a stream on w.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: bufio.NewWriter(w)}
	_, tw.err = tw.w.Write(magic)
	// Force state emission on the first sample of the stream.
	tw.curTID = ^uint32(0)
	tw.curM = -1
	return tw
}

func (w *Writer) op(code byte) {
	if w.err != nil {
		return
	}
	w.err = w.w.WriteByte(code)
}

func (w *Writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *Writer) svarint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

// BeginFrame starts a frame.
func (w *Writer) BeginFrame() {
	if w.inFrame {
		w.fail(errors.New("trace: BeginFrame inside a frame"))
		return
	}
	w.inFrame = true
	w.op(opFrame)
}

// Texel records one texel reference. It is the per-texel entry point of
// the trace-record path: raster.TraceSink calls it once per emitted
// texel.
//
// texlint:hotpath
func (w *Writer) Texel(tid uint32, u, v, m int) {
	if !w.inFrame {
		w.fail(errors.New("trace: Texel outside a frame"))
		return
	}
	if tid != w.curTID {
		w.op(opTexture)
		w.uvarint(uint64(tid))
		w.curTID = tid
	}
	if m != w.curM {
		w.op(opLevel)
		w.uvarint(uint64(m))
		w.curM = m
	}
	w.op(opSample)
	w.svarint(int64(u - w.lastU))
	w.svarint(int64(v - w.lastV))
	w.lastU, w.lastV = u, v
}

// EndFrame closes the frame, recording the rasterized pixel count.
func (w *Writer) EndFrame(pixels int64) {
	if !w.inFrame {
		w.fail(errors.New("trace: EndFrame outside a frame"))
		return
	}
	w.inFrame = false
	w.op(opPixels)
	w.uvarint(uint64(pixels))
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the first error the writer has encountered so far, nil if
// none. Callers recording long streams can poll it between frames to stop
// rendering as soon as the underlying writer fails.
func (w *Writer) Err() error { return w.err }

// Close flushes the stream and returns the first error encountered: a
// prior write failure, closing mid-frame, or the flush itself. Buffered
// bytes are flushed even on error, so the complete frames of a partial
// stream remain decodable. Close is idempotent: repeated calls return the
// same result without further writes.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	flushErr := w.w.Flush()
	switch {
	case w.err != nil:
		w.closeErr = w.err
	case w.inFrame:
		w.closeErr = errors.New("trace: Close inside a frame")
	default:
		w.closeErr = flushErr
	}
	return w.closeErr
}

// Handler receives replayed trace content. BeginFrame is called before the
// frame's texels; EndFrame after, with the frame's pixel count.
type Handler interface {
	BeginFrame()
	Texel(tid uint32, u, v, m int)
	EndFrame(pixels int64)
}

// FailingHandler is an optional extension of Handler. A handler whose
// ReplayErr returns non-nil aborts the replay: the decoder consults it at
// frame boundaries (cheap — never on the per-texel path) and returns the
// handler's error with the count of fully replayed frames. Handlers that
// validate events against external state (texture registries, address
// tables) latch their first failure here instead of panicking mid-stream.
type FailingHandler interface {
	ReplayErr() error
}

// handlerErr returns the handler's latched error when h implements
// FailingHandler, nil otherwise.
func handlerErr(h Handler) error {
	if f, ok := h.(FailingHandler); ok {
		return f.ReplayErr()
	}
	return nil
}

// bufSize is ReplayFrames' read buffer, bufio's default size. It must
// exceed the longest tail that cannot be decoded yet, or a refill could
// not make progress: an opSample with a ten-byte operand and ten bytes of
// an unfinished second one, 1 + 2*binary.MaxVarintLen64 bytes.
const bufSize = 4096

// ReplayFrames decodes a stream from r, invoking h for each event of the
// first maxFrames frames (0 or negative means no limit), and returns the
// number of frames replayed. Decoding stops cleanly at the
// closing frame boundary, so a bounded replay never decodes past its last
// frame's data. The stream is read through one fixed buffer: each refill
// first moves the undecoded tail (at most one operation) to the front, so
// an operation split across reads is decoded once it is whole. Frame
// counts, events and errors are those of ReplayBytes over the same bytes;
// a failing read returns its error, wrapped, with the frames completed
// before it.
func ReplayFrames(r io.Reader, h Handler, maxFrames int) (frames int, err error) {
	buf := make([]byte, bufSize)
	n, err := io.ReadFull(r, buf[:len(magic)])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if err := checkHeader(buf[:n]); err != nil {
		return 0, err
	}
	d := decoder{off: len(magic)}
	end := 0 // buf[:end] holds the bytes not yet decoded
	for {
		n, rerr := r.Read(buf[end:])
		end += n
		eof := rerr == io.EOF
		used, err := d.decode(buf[:end], h, eof, maxFrames)
		switch {
		case err != nil:
			return d.frames, err
		case eof, maxFrames > 0 && d.frames == maxFrames:
			return d.frames, nil
		case rerr != nil:
			return d.frames, fmt.Errorf("trace: reading: %w", rerr)
		}
		end = copy(buf, buf[used:end])
	}
}

// ReplayBytes decodes an in-memory stream, invoking h for each event. It
// runs the decode loop once over the whole slice, with no copy and no
// io.Reader round trip. Semantics are identical to an unbounded
// ReplayFrames, including FailingHandler aborts.
func ReplayBytes(data []byte, h Handler) (frames int, err error) {
	if err := checkHeader(data); err != nil {
		return 0, err
	}
	d := decoder{off: len(magic)}
	_, err = d.decode(data[len(magic):], h, true, 0)
	return d.frames, err
}

// checkHeader verifies the stream's magic and version; b holds the
// stream's first len(magic) bytes, or all of a shorter stream.
func checkHeader(b []byte) error {
	if len(b) < len(magic) {
		return errors.New("trace: short header")
	}
	if !bytes.Equal(b[:len(magic)], magic) {
		return errors.New("trace: bad magic or version")
	}
	return nil
}

// decoder is the replay state carried from one decode call to the next.
type decoder struct {
	tid     uint32
	m, u, v int
	frames  int
	inFrame bool
	// off is the stream offset of the next byte to decode: the start of
	// the data passed to the next decode call.
	off int
}

// decode decodes the operations of data, invoking h per event, and
// returns the bytes it consumed. It stops after the frame that brings the
// count to limit (0 or negative means no limit). An operation whose
// operand runs off the end of data is left unconsumed to wait for more
// input, unless final says data ends the stream; then it is
// truncated, and so is a stream that ends inside a frame. A malformed
// stream's error names the stream offset of the operation that failed,
// the stream's length for one that ends inside a frame; a handler's
// error is returned as it is.
func (d *decoder) decode(data []byte, h Handler, final bool, limit int) (int, error) {
	// Decoder state lives in locals for the loop; single-byte deltas,
	// which dominate coherent rasterization walks, take the fast path.
	tid, m, u, v := d.tid, d.m, d.u, d.v
	inFrame, frames := d.inFrame, d.frames
	var err error
	bad := "" // what is wrong with the operation at data[start:]
	i, n, start := 0, len(data), 0
loop:
	for i < n {
		start = i
		code := data[i]
		i++
		switch code {
		case opSample:
			var du, dv int64
			if i+1 < n && data[i] < 0x80 && data[i+1] < 0x80 {
				bu, bv := data[i], data[i+1]
				du = int64(bu>>1) ^ -int64(bu&1)
				dv = int64(bv>>1) ^ -int64(bv&1)
				i += 2
			} else {
				var ku, kv int
				du, ku = binary.Varint(data[i:])
				if ku > 0 {
					dv, kv = binary.Varint(data[i+ku:])
				}
				if ku <= 0 || kv <= 0 {
					// A zero length runs off the end of data; a
					// negative one overflows.
					if ku >= 0 && kv >= 0 && !final {
						i = start
						break loop
					}
					bad = "bad varint"
					break loop
				}
				i += ku + kv
			}
			if !inFrame {
				bad = "sample outside frame"
				break loop
			}
			u += int(du)
			v += int(dv)
			h.Texel(tid, u, v, m)
		case opFrame:
			if inFrame {
				bad = "nested frame"
				break loop
			}
			if err = handlerErr(h); err != nil {
				break loop
			}
			inFrame = true
			h.BeginFrame()
		case opTexture, opLevel, opPixels:
			x, k := binary.Uvarint(data[i:])
			if k <= 0 {
				if k == 0 && !final {
					i = start
					break loop
				}
				bad = "bad uvarint"
				break loop
			}
			i += k
			switch code {
			case opTexture:
				tid = uint32(x)
			case opLevel:
				m = int(x)
			default: // opPixels
				if !inFrame {
					bad = "frame end outside frame"
					break loop
				}
				inFrame = false
				frames++
				h.EndFrame(int64(x))
				if err = handlerErr(h); err != nil || frames == limit {
					break loop
				}
			}
		default:
			bad = fmt.Sprintf("unknown opcode %#x", code)
			break loop
		}
	}
	d.tid, d.m, d.u, d.v = tid, m, u, v
	d.inFrame, d.frames = inFrame, frames
	at := d.off + start
	d.off += i
	switch {
	case bad != "":
		return i, fmt.Errorf("trace: %s at byte %d", bad, at)
	case err != nil || !final || i < n:
		return i, err
	case inFrame:
		return i, fmt.Errorf("trace: truncated inside a frame at byte %d", d.off)
	}
	return i, handlerErr(h)
}
