package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// figureDigest hashes everything a figure publishes: its CSV header and rows
// (shortest round-trip float formatting, so any changed bit shows), its
// rendering, and its notes.
func figureDigest(f *Figure) string {
	h := sha256.New()
	h.Write([]byte(strings.Join(f.CSVHeader, ",") + "\n"))
	var line []byte
	for _, row := range f.CSVRows {
		line = line[:0]
		for i, v := range row {
			if i > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendFloat(line, v, 'g', -1, 64)
		}
		h.Write(append(line, '\n'))
	}
	h.Write([]byte("rendered\n" + f.Rendered + "\nnotes\n" + f.Notes + "\n"))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFiguresGolden pins every registered figure at the quick test scale to
// the digests in testdata/figures.sha256, so a refactor of the experiment
// runners cannot shift a single CSV digit, rendering or note unnoticed.
func TestFiguresGolden(t *testing.T) {
	fh, err := os.Open(filepath.Join("testdata", "figures.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, e := range Registry() {
		f, err := e.Run(quickCfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := figureDigest(f); got != want[e.ID] {
			t.Errorf("%s: digest %s, want %q", e.ID, got, want[e.ID])
		}
	}
	if len(want) != len(Registry()) {
		t.Errorf("golden file has %d entries, registry %d", len(want), len(Registry()))
	}
}
