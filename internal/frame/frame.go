// Package frame is the one envelope and canonical-primitive codec behind
// every binary format paratune speaks or writes: the PHWIRE1 tuning wire
// (internal/harmony), the PHSYNC1 federation wire (internal/feddb), and the
// measuredb WAL and snapshot files (internal/measuredb). Each protocol keeps
// its own payload layout, op tables, and magic; this package owns the bytes
// they share.
//
//	frame   = uvarint(len(payload)) | crc32(payload) 4 bytes big-endian | payload
//	uvarint = canonical (minimal) LEB128; padded encodings are rejected
//	string  = uvarint length | bytes
//	u64/f64 = 8 bytes big-endian (f64 as its IEEE-754 bits)
//	floats  = uvarint count | count × f64
//	bool    = one byte, 0 or 1
//
// Decoding is strict — canonical uvarints, counts bounded by the bytes left,
// 0/1 bools, exact consumption — so decoding an accepted input and encoding
// the result yields the input byte for byte (FuzzFrame pins this).
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
)

// MaxPayload bounds a frame payload on the wire, mirroring the JSON
// scanner's 1MB line cap.
const MaxPayload = 1 << 20

// Structural errors. Transport errors (EOF, deadlines) are passed through
// unchanged so callers can tell a closed connection from a hostile one.
var (
	ErrMalformed = errors.New("frame: malformed encoding")
	ErrTooLarge  = errors.New("frame: payload exceeds size limit")
	ErrCRC       = errors.New("frame: payload CRC mismatch")
)

// Uvarint decodes a minimally encoded uvarint from the start of b,
// returning the value and the bytes consumed, or (0, 0) when b starts with
// no complete canonical encoding.
func Uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

// AppendFrame wraps payload in the envelope.
//
//paralint:hotpath
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFrame reads one frame from br and returns its payload, which lands in
// buf's backing array when it fits — a steady-state connection rereads
// frames without allocating. The result aliases buf (possibly grown) and is
// valid only until the caller's next read into the same buffer; pass a nil
// buf for a freshly allocated payload. Transport errors come back as-is;
// structural violations as ErrMalformed, ErrTooLarge, or ErrCRC.
func ReadFrame(br *bufio.Reader, max int, buf []byte) ([]byte, error) {
	var lenBuf [binary.MaxVarintLen64]byte
	n := 0
	for {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if n >= len(lenBuf) {
			return nil, ErrMalformed
		}
		lenBuf[n] = b
		n++
		if b < 0x80 {
			break
		}
	}
	size, un := Uvarint(lenBuf[:n])
	if un != n {
		return nil, ErrMalformed
	}
	if size > uint64(max) {
		return nil, ErrTooLarge
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, err
	}
	payload := buf
	if uint64(cap(payload)) < size {
		payload = make([]byte, size)
	} else {
		payload = payload[:size]
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crcBuf[:]) {
		return nil, ErrCRC
	}
	return payload, nil
}

// Split decodes the frame at the start of b, returning a view of its
// payload and the bytes the whole frame occupies. A missing or
// non-canonical length prefix is ErrMalformed, and a frame running past the
// end of b (a torn tail write) is io.ErrUnexpectedEOF.
func Split(b []byte, max int) (payload []byte, n int, err error) {
	size, k := Uvarint(b)
	if k == 0 {
		return nil, 0, ErrMalformed
	}
	if size > uint64(max) {
		return nil, 0, ErrTooLarge
	}
	if uint64(len(b)-k) < 4+size {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n = k + 4 + int(size)
	payload = b[k+4 : n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[k:]) {
		return nil, 0, ErrCRC
	}
	return payload, n, nil
}

// --- append-style encoders (zero allocations into a caller-owned buffer) ---

// AppendString appends a uvarint-length-prefixed string.
//
//paralint:hotpath
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendF64 appends the IEEE-754 bits big-endian.
//
//paralint:hotpath
func AppendF64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendFloats appends a uvarint count followed by the values.
//
//paralint:hotpath
func AppendFloats(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = AppendF64(dst, f)
	}
	return dst
}

// AppendBool appends a single 0/1 byte.
//
//paralint:hotpath
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// --- decoder ---

// Reader is a sticky-error cursor over one payload: after the first
// violation every read returns a zero value and Finish reports ErrMalformed.
// Strings, byte slices, and float lists are copies, so nothing a Reader
// returns aliases the payload. Use it as a function-local value.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Fail marks the payload malformed; decoders call it when a field decodes
// cleanly but violates the protocol's own rules.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrMalformed
	}
}

// Err reports the sticky error, without demanding exact consumption.
func (r *Reader) Err() error { return r.err }

// Offset reports the bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint decodes a canonical uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// Uvarint's check, spelled out: one call shallower on the decode path.
	b := r.buf[r.off:]
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Int decodes a uvarint that must fit a non-negative int32.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail()
		return 0
	}
	return int(v)
}

// Count decodes an element count for elements of at least elemMin encoded
// bytes, bounding allocations by the remaining payload.
func (r *Reader) Count(elemMin int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64((len(r.buf)-r.off)/elemMin) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Str decodes a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Bytes decodes a length-prefixed byte slice into a fresh copy (nil when
// empty).
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:])
	r.off += n
	return b
}

// U64 decodes 8 bytes big-endian.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.Fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// F64 decodes IEEE-754 bits big-endian.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Floats decodes a counted float list (nil when empty).
func (r *Reader) Floats() []float64 {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.F64()
	}
	return fs
}

// Bool decodes a 0/1 byte.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail()
		return false
	}
	return b == 1
}

// Finish demands the payload was consumed exactly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrMalformed
	}
	return nil
}
