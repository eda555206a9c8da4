package experiment

import (
	"math"
	"testing"

	"paratune/internal/baseline"
	"paratune/internal/core"
	"paratune/internal/noise"
)

func TestMeanOf(t *testing.T) {
	if got := meanOf([]float64{1, 2, 3}); got != 2 {
		t.Errorf("meanOf = %g", got)
	}
}

func TestArgminIdx(t *testing.T) {
	if got := argminIdx([]float64{3, 1, 2}); got != 1 {
		t.Errorf("argminIdx = %d", got)
	}
	if got := argminIdx([]float64{5}); got != 0 {
		t.Errorf("single element argmin = %d", got)
	}
	// Ties resolve to the first occurrence.
	if got := argminIdx([]float64{2, 1, 1}); got != 1 {
		t.Errorf("tie argmin = %d", got)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[float64][]float64{0.4: nil, 0.05: nil, 0.2: nil}
	ks := sortedKeys(m)
	if len(ks) != 3 || ks[0] != 0.05 || ks[1] != 0.2 || ks[2] != 0.4 {
		t.Errorf("sortedKeys = %v", ks)
	}
}

func TestNotesJoins(t *testing.T) {
	if got := notes("a", "b"); got != "a\nb" {
		t.Errorf("notes = %q", got)
	}
}

func TestCrossCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if r, err := crossCorrelation(a, a); err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("self-correlation = %g, %v", r, err)
	}
	b := []float64{4, 3, 2, 1}
	if r, err := crossCorrelation(a, b); err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("anti-correlation = %g, %v", r, err)
	}
	if _, err := crossCorrelation(a, a[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := crossCorrelation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance should fail")
	}
}

func TestGS2TraceModelValid(t *testing.T) {
	m, err := gs2TraceModel()
	if err != nil {
		t.Fatal(err)
	}
	// Composite of per-proc queue + shared burst; must be step-aware so the
	// bursts correlate across processors.
	if _, ok := m.(noise.StepAware); !ok {
		t.Error("trace model must be step-aware")
	}
	if m.Rho() <= 0 || m.Rho() >= 1 {
		t.Errorf("trace model rho = %g", m.Rho())
	}
}

func TestOnlineRunHelper(t *testing.T) {
	db := gs2DB(1)
	alg, err := core.NewPRO(core.Options{Space: db.Space()})
	if err != nil {
		t.Fatal(err)
	}
	model, err := paretoNoise(0.1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := minOfK(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := onlineRun(alg, db, model, est, 30, 8, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 30 {
		t.Errorf("steps = %d", res.Steps)
	}
	// Invalid rho propagates.
	if _, err := paretoNoise(1.5); err == nil {
		t.Error("invalid rho should fail")
	}
	// Invalid K propagates.
	alg3, _ := core.NewPRO(core.Options{Space: db.Space()})
	single, err := minOfK(-2)
	if err == nil {
		_, err = onlineRun(alg3, db, model, single, 10, 8, 7, false)
	}
	if err != nil || single.K() != 1 {
		t.Errorf("k<=1 means single sample, not an error: %v", err)
	}
}

// The baselines referenced by Fig. 1 construct cleanly at experiment scale.
func TestFig1VariantsConstruct(t *testing.T) {
	db := gs2DB(1)
	if _, err := core.NewPRO(core.Options{Space: db.Space(), R: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.NewAnnealing(db.Space(), 1.5, 0.99, 1e-4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.NewGenetic(db.Space(), 16, 0.25, 1); err != nil {
		t.Fatal(err)
	}
}
