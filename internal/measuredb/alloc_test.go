package measuredb

import (
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// The warm-start lookup runs once per candidate per optimiser iteration on
// a warm-started run; the memo path hands it a reused buffer, so the lookup
// itself must not allocate: the stack key buffer must not escape, the map
// access must use the no-alloc string-conversion form, and the estimate
// runs over the caller's buffer.
func TestStoreEstimateAllocs(t *testing.T) {
	s := NewMemory(Options{})
	p := space.Point{1, 2, 3, 4}
	for i := 0; i < 5; i++ {
		s.Observe(p, float64(i))
	}
	min3, err := sample.NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	var est sample.Estimator = min3 // held as an interface, as Memo does
	dst := make([]float64, 0, 8)
	alloccheck.Guard(t, "measuredb.Store.Estimate", 0, func() {
		dst, _, _, _ = s.Estimate(dst[:0], p, est, 3)
	})
}
