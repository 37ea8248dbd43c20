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

// Event is one decoded texel reference.
type Event struct {
	TID     uint32
	U, V, M int
}

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
// ReplayErr returns non-nil aborts the replay: the decoders consult it at
// frame boundaries (cheap — never on the per-texel path) and return the
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

// Replay decodes a stream from r, invoking h for each event. It returns
// the number of frames replayed.
func Replay(r io.Reader, h Handler) (frames int, err error) {
	return ReplayFrames(r, h, 0)
}

// ReplayFrames is Replay bounded to the first maxFrames frames of the
// stream (0 or negative means no limit). Decoding stops cleanly at the
// closing frame boundary, so a bounded replay never reads past its last
// frame's data.
func ReplayFrames(r io.Reader, h Handler, maxFrames int) (frames int, err error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	for i, b := range magic {
		if head[i] != b {
			return 0, errors.New("trace: bad magic or version")
		}
	}
	var (
		tid     uint32
		m       int
		u, v    int
		inFrame bool
	)
	for {
		code, err := br.ReadByte()
		if err == io.EOF {
			if inFrame {
				return frames, errors.New("trace: truncated inside a frame")
			}
			return frames, handlerErr(h)
		}
		if err != nil {
			return frames, err
		}
		switch code {
		case opFrame:
			if inFrame {
				return frames, errors.New("trace: nested frame")
			}
			if err := handlerErr(h); err != nil {
				return frames, err
			}
			inFrame = true
			h.BeginFrame()
		case opTexture:
			x, err := binary.ReadUvarint(br)
			if err != nil {
				return frames, err
			}
			tid = uint32(x)
		case opLevel:
			x, err := binary.ReadUvarint(br)
			if err != nil {
				return frames, err
			}
			m = int(x)
		case opSample:
			du, err := binary.ReadVarint(br)
			if err != nil {
				return frames, err
			}
			dv, err := binary.ReadVarint(br)
			if err != nil {
				return frames, err
			}
			if !inFrame {
				return frames, errors.New("trace: sample outside frame")
			}
			u += int(du)
			v += int(dv)
			h.Texel(tid, u, v, m)
		case opPixels:
			x, err := binary.ReadUvarint(br)
			if err != nil {
				return frames, err
			}
			if !inFrame {
				return frames, errors.New("trace: frame end outside frame")
			}
			inFrame = false
			frames++
			h.EndFrame(int64(x))
			if err := handlerErr(h); err != nil {
				return frames, err
			}
			if maxFrames > 0 && frames >= maxFrames {
				return frames, nil
			}
		default:
			return frames, fmt.Errorf("trace: unknown opcode %#x", code)
		}
	}
}

// Decoder errors shared by the slice decoder's helpers.
var (
	errBadUvarint = errors.New("trace: bad uvarint")
	errBadVarint  = errors.New("trace: bad varint")
)

// ReplayBytes decodes an in-memory stream, invoking h for each event. It
// is the whole-slice entry to the replay path: the decode loop indexes
// the slice directly instead of paying an io.Reader round trip per byte,
// and the sample loop special-cases single-byte deltas, which dominate
// coherent rasterization walks. Semantics are identical to Replay,
// including FailingHandler aborts. It is implemented as a single Feed
// into a ShardDecoder, so chunked and contiguous decodes cannot diverge.
func ReplayBytes(data []byte, h Handler) (frames int, err error) {
	if len(data) < len(magic) {
		return 0, errors.New("trace: short header")
	}
	var d ShardDecoder
	if err := d.Feed(data, h); err != nil {
		return d.frames, err
	}
	return d.Finish(h)
}
