package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// carryMax bounds the pending-operation buffer of a ShardDecoder. The
// longest operation a stream can hold is opSample with two maximum-width
// varints (1 + 2*10 bytes), but a carry only ever holds an *undecided*
// prefix: a varint decides (value or overflow) by its 10th byte, so the
// longest undecidable tail is an opcode, one full 10-byte varint and nine
// continuation bytes of the next — 20 bytes. 24 leaves slack.
const carryMax = 24

// ShardDecoder decodes a trace stream delivered in arbitrary chunks,
// without ever materializing the contiguous stream. Operations that
// straddle a chunk boundary are carried between Feed calls. Semantics — event
// sequence, frame counts, error strings, FailingHandler aborts — are
// identical to ReplayBytes over the concatenated bytes; ReplayBytes is
// itself implemented on this decoder.
//
// The zero value is ready to use; Reset re-arms a used decoder.
type ShardDecoder struct {
	tid     uint32
	m, u, v int
	frames  int
	hdr     int // bytes of the magic header verified so far
	ncarry  int // pending bytes of an operation split across chunks
	inFrame bool
	err     error // first error, latched; Feed and Finish repeat it
	carry   [carryMax]byte
}

// Reset returns the decoder to its initial state for a new stream.
func (d *ShardDecoder) Reset() { *d = ShardDecoder{} }

// Frames returns the number of fully decoded frames so far.
func (d *ShardDecoder) Frames() int { return d.frames }

// uvarintFrom decodes an unsigned varint at data[i]. more means the
// operand runs off the end of data and needs bytes from the next chunk;
// err is the overflow (corruption) case.
func uvarintFrom(data []byte, i int) (v uint64, j int, more bool, err error) {
	x, n := binary.Uvarint(data[i:])
	if n == 0 {
		return 0, i, true, nil
	}
	if n < 0 {
		return 0, i, false, errBadUvarint
	}
	return x, i + n, false, nil
}

// varintFrom is uvarintFrom for zigzag varints.
func varintFrom(data []byte, i int) (v int64, j int, more bool, err error) {
	x, n := binary.Varint(data[i:])
	if n == 0 {
		return 0, i, true, nil
	}
	if n < 0 {
		return 0, i, false, errBadVarint
	}
	return x, i + n, false, nil
}

// step decodes exactly one operation from buf, which starts at an opcode.
// It returns the bytes consumed, or 0 when buf holds only a prefix of the
// operation; final converts that prefix into the truncated-operand error
// the contiguous decoder would report at end of stream.
func (d *ShardDecoder) step(buf []byte, h Handler, final bool) (int, error) {
	code := buf[0]
	i := 1
	switch code {
	case opSample:
		du, j, more, err := varintFrom(buf, i)
		if more {
			if final {
				return 0, errBadVarint
			}
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		dv, j2, more, err := varintFrom(buf, j)
		if more {
			if final {
				return 0, errBadVarint
			}
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		if !d.inFrame {
			return 0, errors.New("trace: sample outside frame")
		}
		d.u += int(du)
		d.v += int(dv)
		h.Texel(d.tid, d.u, d.v, d.m)
		return j2, nil
	case opFrame:
		if d.inFrame {
			return 0, errors.New("trace: nested frame")
		}
		if err := handlerErr(h); err != nil {
			return 0, err
		}
		d.inFrame = true
		h.BeginFrame()
		return i, nil
	case opTexture, opLevel, opPixels:
		x, j, more, err := uvarintFrom(buf, i)
		if more {
			if final {
				return 0, errBadUvarint
			}
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		switch code {
		case opTexture:
			d.tid = uint32(x)
		case opLevel:
			d.m = int(x)
		default: // opPixels
			if !d.inFrame {
				return 0, errors.New("trace: frame end outside frame")
			}
			d.inFrame = false
			d.frames++
			h.EndFrame(int64(x))
			if err := handlerErr(h); err != nil {
				return 0, err
			}
		}
		return j, nil
	default:
		return 0, badOpcode(code)
	}
}

// badOpcode builds the unknown-opcode error in exactly the form the
// historical contiguous decoder used, so chunked and whole-slice decodes
// stay indistinguishable to callers matching on the message.
func badOpcode(code byte) error {
	return fmt.Errorf("trace: unknown opcode %#x", code)
}

// Feed decodes every complete operation of data, invoking h per event,
// and stashes the bytes of a trailing incomplete operation for the next
// call. The first error is latched: subsequent Feed calls return it
// without touching h.
func (d *ShardDecoder) Feed(data []byte, h Handler) error {
	if d.err != nil {
		return d.err
	}
	for d.hdr < len(magic) && len(data) > 0 {
		if data[0] != magic[d.hdr] {
			d.err = errors.New("trace: bad magic or version")
			return d.err
		}
		d.hdr++
		data = data[1:]
	}
	if d.ncarry > 0 && len(data) > 0 {
		// Complete the operation split across the chunk boundary.
		n := copy(d.carry[d.ncarry:], data)
		used, err := d.step(d.carry[:d.ncarry+n], h, false)
		if err != nil {
			d.err = err
			return err
		}
		if used == 0 {
			// Still undecided; an undecidable prefix never exceeds
			// carryMax, so all of data fit in the carry buffer.
			d.ncarry += n
			return nil
		}
		data = data[used-d.ncarry:]
		d.ncarry = 0
	}

	// Hot loop, mirroring ReplayBytes' shape: decoder state in locals,
	// single-byte delta fast path first.
	tid, m, u, v := d.tid, d.m, d.u, d.v
	inFrame, frames := d.inFrame, d.frames
	var ferr error
	i, n := 0, len(data)
loop:
	for i < n {
		opStart := i
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
				var more bool
				if du, i, more, ferr = varintFrom(data, i); more || ferr != nil {
					if more {
						i = opStart
					}
					break loop
				}
				if dv, i, more, ferr = varintFrom(data, i); more || ferr != nil {
					if more {
						i = opStart
					}
					break loop
				}
			}
			if !inFrame {
				ferr = errors.New("trace: sample outside frame")
				break loop
			}
			u += int(du)
			v += int(dv)
			h.Texel(tid, u, v, m)
		case opFrame:
			if inFrame {
				ferr = errors.New("trace: nested frame")
				break loop
			}
			if ferr = handlerErr(h); ferr != nil {
				break loop
			}
			inFrame = true
			h.BeginFrame()
		case opTexture, opLevel, opPixels:
			var x uint64
			var more bool
			if x, i, more, ferr = uvarintFrom(data, i); more || ferr != nil {
				if more {
					i = opStart
				}
				break loop
			}
			switch code {
			case opTexture:
				tid = uint32(x)
			case opLevel:
				m = int(x)
			default: // opPixels
				if !inFrame {
					ferr = errors.New("trace: frame end outside frame")
					break loop
				}
				inFrame = false
				frames++
				h.EndFrame(int64(x))
				if ferr = handlerErr(h); ferr != nil {
					break loop
				}
			}
		default:
			ferr = badOpcode(code)
			break loop
		}
	}
	d.tid, d.m, d.u, d.v = tid, m, u, v
	d.inFrame, d.frames = inFrame, frames
	if ferr != nil {
		d.err = ferr
		return ferr
	}
	if i < n {
		d.ncarry = copy(d.carry[:], data[i:])
	}
	return nil
}

// Finish declares the stream complete and returns the frame count with
// the error a contiguous decode of the same bytes would have produced:
// a latched Feed error, a missing or short header, a truncated operand,
// truncation inside a frame, or the handler's own latched failure.
func (d *ShardDecoder) Finish(h Handler) (int, error) {
	if d.err != nil {
		return d.frames, d.err
	}
	if d.hdr < len(magic) {
		d.err = errors.New("trace: short header")
		return d.frames, d.err
	}
	if d.ncarry > 0 {
		_, err := d.step(d.carry[:d.ncarry], h, true)
		d.ncarry = 0
		if err != nil {
			d.err = err
			return d.frames, err
		}
	}
	if d.inFrame {
		d.err = errors.New("trace: truncated inside a frame")
		return d.frames, d.err
	}
	return d.frames, handlerErr(h)
}
