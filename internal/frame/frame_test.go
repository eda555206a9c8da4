package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"paratune/internal/alloccheck"
)

func readFrame(raw []byte, max int) ([]byte, error) {
	return ReadFrame(bufio.NewReader(bytes.NewReader(raw)), max, nil)
}

// TestReadFrameRejects covers the envelope: CRC mismatch, oversized length,
// and a non-minimal length prefix must all be structural errors, from both
// the stream reader and the slice splitter.
func TestReadFrameRejects(t *testing.T) {
	payload := AppendString(AppendF64([]byte{7}, 1.5), "session")
	frame := AppendFrame(nil, payload)

	corrupt := append([]byte{}, frame...)
	corrupt[len(corrupt)-1] ^= 0x01
	huge := binary.AppendUvarint(nil, MaxPayload+1)
	huge = append(huge, 0, 0, 0, 0)
	nonMinimal := append([]byte{0x80, 0x00, 0, 0, 0, 0}, frame...)
	for _, c := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"corrupted payload", corrupt, ErrCRC},
		{"oversized frame", huge, ErrTooLarge},
		{"non-minimal length", nonMinimal, ErrMalformed},
	} {
		if _, err := readFrame(c.raw, MaxPayload); !errors.Is(err, c.want) {
			t.Errorf("ReadFrame %s: err = %v, want %v", c.name, err, c.want)
		}
		if _, _, err := Split(c.raw, MaxPayload); !errors.Is(err, c.want) {
			t.Errorf("Split %s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, _, err := Split(frame[:len(frame)-1], MaxPayload); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Split torn tail: err = %v, want unexpected EOF", err)
	}

	// A valid frame decodes to exactly its payload.
	got, err := readFrame(frame, MaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("ReadFrame returned wrong payload")
	}
	got, n, err := Split(append(frame, 0xff), MaxPayload)
	if err != nil || n != len(frame) || !bytes.Equal(got, payload) {
		t.Errorf("Split = (%x, %d, %v), want (%x, %d, nil)", got, n, err, payload, len(frame))
	}
}

// TestAppendAllocs pins the //paralint:hotpath encoders at zero allocations
// once the destination has grown.
func TestAppendAllocs(t *testing.T) {
	fs := []float64{1, 2, 3}
	pbuf := make([]byte, 0, 256)
	fbuf := make([]byte, 0, 256)
	alloccheck.Guard(t, "frame.Append*", 0, func() {
		pbuf = AppendString(pbuf[:0], "tuning-session")
		pbuf = AppendF64(pbuf, 0.5)
		pbuf = AppendFloats(pbuf, fs)
		pbuf = AppendBool(pbuf, true)
		fbuf = AppendFrame(fbuf[:0], pbuf)
	})
}

// readerOps is the primitive table FuzzFrame drives the Reader with: each
// schema byte picks a read, and the read value is re-encoded with the
// matching encoder.
var readerOps = []func(r *Reader, out []byte) []byte{
	func(r *Reader, out []byte) []byte { return append(out, r.Byte()) },
	func(r *Reader, out []byte) []byte { return binary.AppendUvarint(out, r.Uvarint()) },
	func(r *Reader, out []byte) []byte { return binary.AppendUvarint(out, uint64(r.Int())) },
	func(r *Reader, out []byte) []byte { return AppendString(out, r.Str()) },
	func(r *Reader, out []byte) []byte { return AppendString(out, string(r.Bytes())) },
	func(r *Reader, out []byte) []byte { return binary.BigEndian.AppendUint64(out, r.U64()) },
	func(r *Reader, out []byte) []byte { return AppendF64(out, r.F64()) },
	func(r *Reader, out []byte) []byte { return AppendFloats(out, r.Floats()) },
	func(r *Reader, out []byte) []byte { return AppendBool(out, r.Bool()) },
}

// decodeSchema reads raw as the schema's primitives and re-encodes what it
// read, returning the re-encoding and Finish's verdict.
func decodeSchema(schema, raw []byte) ([]byte, error) {
	r := NewReader(raw)
	var out []byte
	for _, op := range schema {
		out = readerOps[int(op)%len(readerOps)](&r, out)
	}
	return out, r.Finish()
}

// FuzzFrame pins the shared codec's canonical property. Envelope: the
// stream reader and the slice splitter agree on every input, an accepted
// frame re-encodes to exactly the bytes it was read from, and its torn,
// padded-length, and over-limit variants are rejected. Reader: any payload a
// schema of primitive reads consumes exactly re-encodes to itself, and its
// truncations and extensions are rejected. Canonical uvarints: the padded
// twin of every minimal encoding is rejected.
func FuzzFrame(f *testing.F) {
	payload := AppendBool(AppendFloats(AppendString([]byte{9}, "s"), []float64{1, -2}), true)
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 3, 7, 8}, payload)
	f.Add([]byte{1, 2, 4, 5, 6}, AppendFrame(nil, payload))
	f.Add([]byte{1}, []byte{0x80, 0x00})                               // non-minimal uvarint
	f.Add([]byte{8}, []byte{2})                                        // bool out of range
	f.Add([]byte{3}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // oversized count
	f.Fuzz(func(t *testing.T, schema, raw []byte) {
		// Envelope.
		got, rerr := readFrame(raw, MaxPayload)
		sp, n, serr := Split(raw, MaxPayload)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("ReadFrame err = %v but Split err = %v", rerr, serr)
		}
		if rerr == nil {
			if !bytes.Equal(got, sp) {
				t.Fatalf("ReadFrame payload %x != Split payload %x", got, sp)
			}
			if re := AppendFrame(nil, got); !bytes.Equal(re, raw[:n]) {
				t.Fatalf("envelope decode∘encode not identity:\n in: %x\nout: %x", raw[:n], re)
			}
			if _, _, err := Split(raw[:n-1], MaxPayload); err == nil {
				t.Fatal("Split accepted a torn frame")
			}
			k := n - 4 - len(got)
			padded := append(append(append([]byte{}, raw[:k]...), 0), raw[k:n]...)
			padded[k-1] |= 0x80
			if _, err := readFrame(padded, MaxPayload); !errors.Is(err, ErrMalformed) {
				t.Fatalf("ReadFrame accepted a padded length prefix: %v", err)
			}
			if len(got) > 0 {
				if _, err := readFrame(raw, len(got)-1); !errors.Is(err, ErrTooLarge) {
					t.Fatalf("ReadFrame over its limit: err = %v, want too-large", err)
				}
			}
		}

		// Reader.
		if len(schema) > 64 {
			schema = schema[:64]
		}
		if out, err := decodeSchema(schema, raw); err == nil {
			if !bytes.Equal(out, raw) {
				t.Fatalf("reader decode∘encode not identity:\n in: %x\nout: %x", raw, out)
			}
			if len(raw) > 0 {
				if _, err := decodeSchema(schema, raw[:len(raw)-1]); err == nil {
					t.Fatal("reader accepted a truncated payload")
				}
			}
			if _, err := decodeSchema(schema, append(raw[:len(raw):len(raw)], 0)); err == nil {
				t.Fatal("reader accepted trailing bytes")
			}
		}

		// Canonical uvarints.
		var v uint64
		for i, b := range raw {
			if i == 8 {
				break
			}
			v = v<<8 | uint64(b)
		}
		enc := binary.AppendUvarint(nil, v)
		if got, k := Uvarint(enc); got != v || k != len(enc) {
			t.Fatalf("Uvarint(%x) = (%d, %d), want (%d, %d)", enc, got, k, v, len(enc))
		}
		if len(enc) < binary.MaxVarintLen64 {
			pad := append(enc[:len(enc):len(enc)], 0)
			pad[len(enc)-1] |= 0x80
			if _, k := Uvarint(pad); k != 0 {
				t.Fatalf("Uvarint accepted padded encoding %x", pad)
			}
			r := NewReader(pad)
			r.Uvarint()
			if r.Finish() == nil {
				t.Fatalf("Reader accepted padded encoding %x", pad)
			}
		}
	})
}
