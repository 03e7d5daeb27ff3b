// Package bitio provides bit-granular writers and readers used by the
// compression codecs in this repository (bit-plane truncation, Huffman
// codes, embedded coding). The writer packs bits MSB-first into a byte
// slice; the reader consumes the same layout.
package bitio

import (
	"errors"
	"fmt"
)

// ErrShortBuffer is returned by Reader methods when the underlying buffer
// does not contain the requested number of bits.
var ErrShortBuffer = errors.New("bitio: short buffer")

// Writer accumulates bits MSB-first. The zero value is ready to use.
type Writer struct {
	buf  []byte
	bitN uint8 // number of bits already used in the last byte (0..7)
}

// NewWriter returns a Writer whose internal buffer has the given capacity
// hint in bytes.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Reset clears the writer, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.bitN = 0
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	if w.bitN == 0 {
		w.buf = append(w.buf, 0)
	}
	if b&1 != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.bitN)
	}
	w.bitN = (w.bitN + 1) & 7
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	for n >= 8 && w.bitN == 0 {
		n -= 8
		w.buf = append(w.buf, byte(v>>n))
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i)))
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	w.bitN = 0
}

// BitLen reports the total number of bits written.
func (w *Writer) BitLen() int {
	n := len(w.buf) * 8
	if w.bitN != 0 {
		n -= 8 - int(w.bitN)
	}
	return n
}

// Bytes returns the packed buffer. Trailing bits of the final byte are zero.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int   // next byte index
	bitN uint8 // bits already consumed from buf[pos] (0..7)
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrShortBuffer
	}
	b := uint(r.buf[r.pos]>>(7-r.bitN)) & 1
	r.bitN++
	if r.bitN == 8 {
		r.bitN = 0
		r.pos++
	}
	return b, nil
}

// ReadBits reads n bits (n ≤ 64), most significant first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	var v uint64
	// Fast path: byte-aligned whole bytes.
	for n >= 8 && r.bitN == 0 {
		if r.pos >= len(r.buf) {
			return 0, ErrShortBuffer
		}
		v = v<<8 | uint64(r.buf[r.pos])
		r.pos++
		n -= 8
	}
	for ; n > 0; n-- {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() {
	if r.bitN != 0 {
		r.bitN = 0
		r.pos++
	}
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int {
	n := (len(r.buf) - r.pos) * 8
	n -= int(r.bitN)
	if n < 0 {
		return 0
	}
	return n
}
