package feddb

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paratune/internal/frame"
	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// mustEncode builds a seed corpus payload from a structured message.
func mustEncode(f *testing.F, m *syncMsg) []byte {
	b, err := appendSyncMsg(nil, m)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzSyncFrameDecode pins the PHSYNC1 codec's canonicality: the decoder
// must never panic on arbitrary payload bytes, and any payload it accepts
// must re-encode to exactly the same bytes (minimal uvarints, strict 0/1
// bools, no trailing garbage). That identity is what makes frames relayable
// and replayable byte-for-byte through the chaos proxy.
func FuzzSyncFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Add(mustEncode(f, &syncMsg{Op: "hello", Seed: -3, Space: "space{a:integer[0,4]}", Origins: []measuredb.OriginDigest{{Origin: "a", High: 9, Hash: 0xdeadbeef}}}))
	f.Add(mustEncode(f, &syncMsg{Op: "digest", Seed: 42, Origins: []measuredb.OriginDigest{{Origin: "n2a", High: 1, Hash: 7}, {Origin: "z", High: 1 << 40, Hash: 1}}}))
	f.Add(mustEncode(f, &syncMsg{Op: "pull", Origin: "a", From: 10, Max: 512}))
	f.Add(mustEncode(f, &syncMsg{Op: "frames", Origin: "a", High: 3, Hash: 9, Frames: []measuredb.Frame{{Origin: "a", Seq: 3, Point: space.Point{1.5, -2}, Value: 0.25}}}))
	f.Add(mustEncode(f, &syncMsg{Op: "push", Origin: "b", Frames: []measuredb.Frame{{Origin: "b", Seq: 1, Point: space.Point{0}, Value: 0}}}))
	f.Add(mustEncode(f, &syncMsg{Op: "ack", Applied: 5, Dups: 2}))
	f.Add(mustEncode(f, &syncMsg{Op: "snappull", From: 65536, Hash: 0xabc}))
	f.Add(mustEncode(f, &syncMsg{Op: "snapchunk", Size: 1 << 20, Hash: 1, Data: []byte{1, 2, 3}, Done: true}))
	f.Add(mustEncode(f, &syncMsg{Op: "error", Detail: "space signature mismatch"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m syncMsg
		if err := decodeSyncMsg(data, &m); err != nil {
			return
		}
		re, err := appendSyncMsg(nil, &m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode is not the identity:\n got %x\nwant %x", re, data)
		}
	})
}

// TestSyncFixtureRoundTrip pins PHSYNC1 bytes across commits: a frames
// message written by an earlier build must decode to the same message and
// re-encode byte-identically through writeSyncMsg.
func TestSyncFixtureRoundTrip(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "phsync1_frames.hex"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	want := syncMsg{Op: "frames", Origin: "peer-a", High: 3, Hash: 0x1234abcd5678ef90, Frames: []measuredb.Frame{
		{Origin: "peer-a", Seq: 2, Point: space.Point{1.5, -2}, Value: 0.25},
		{Origin: "peer-a", Seq: 3, Point: space.Point{4, 0}, Value: 17},
	}}
	payload, err := frame.ReadFrame(bufio.NewReader(bytes.NewReader(raw)), frame.MaxPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	var m syncMsg
	if err := decodeSyncMsg(payload, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("fixture decoded to %+v, want %+v", m, want)
	}
	var out bytes.Buffer
	var buf syncBuf
	if err := writeSyncMsg(&out, &buf, &m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Errorf("fixture re-encoded differently:\n got %x\nwant %x", out.Bytes(), raw)
	}
}
