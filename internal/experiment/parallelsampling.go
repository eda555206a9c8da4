package experiment

import (
	"fmt"

	"paratune/internal/core"
	"paratune/internal/plot"
)

// ExtParallelSampling validates the closing observation of §5.2: "If there
// are 64 parallel processors running GS2 concurrently, we can set K = 10
// with no additional cost." With 64 processors and only 2N = 6 candidates
// per batch, idle processors can replicate candidates, so multiple samples
// arrive within a single time step. The experiment sweeps K under both
// policies — samples in subsequent steps (the Fig. 10 worst case) and
// parallel sampling — and shows the sampling overhead vanish.
func ExtParallelSampling(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(300, 8)
	budget := 100
	const rho = 0.3
	const procs = 64 // the paper's cluster width
	ks := []int{1, 2, 3, 5, 8, 10}
	if cfg.Quick {
		ks = []int{1, 5, 10}
	}

	model, err := paretoNoise(rho)
	if err != nil {
		return nil, err
	}
	seeds := repSeeds(cfg.Seed+8, reps)
	run := func(k int, parallel bool) (float64, float64, error) {
		est, err := minOfK(k)
		if err != nil {
			return 0, 0, err
		}
		opts := core.Options{Space: db.Space(), R: 0.2}
		ntts, truths, err := replicate(seeds, proRun(opts, db, model, est, budget, procs, parallel))
		if err != nil {
			return 0, 0, err
		}
		return meanOf(ntts), meanOf(truths), nil
	}

	var rows [][]float64
	seq := make([]float64, len(ks))
	par := make([]float64, len(ks))
	xs := make([]float64, len(ks))
	for ki, k := range ks {
		xs[ki] = float64(k)
		sNTT, sTrue, err := run(k, false)
		if err != nil {
			return nil, err
		}
		pNTT, pTrue, err := run(k, true)
		if err != nil {
			return nil, err
		}
		seq[ki], par[ki] = sNTT, pNTT
		rows = append(rows, []float64{float64(k), sNTT, sTrue, pNTT, pTrue})
	}

	rendered, err := plot.Line(plot.Config{
		Title:  fmt.Sprintf("Extension — sampling policy on %d processors (rho=%.1f)", procs, rho),
		XLabel: "samples K", YLabel: "avg NTT",
	},
		plot.Series{Name: "subsequent steps (Fig. 10 worst case)", X: xs, Y: seq},
		plot.Series{Name: "parallel sampling (§5.2)", X: xs, Y: par},
	)
	if err != nil {
		return nil, err
	}

	seqSlope := (seq[len(ks)-1] - seq[0]) / float64(ks[len(ks)-1]-ks[0])
	parSlope := (par[len(ks)-1] - par[0]) / float64(ks[len(ks)-1]-ks[0])
	return &Figure{
		ID:        "ext-parallel-sampling",
		Title:     "Parallel multi-sampling (§5.2's free samples)",
		CSVHeader: []string{"samples", "ntt_subsequent", "true_subsequent", "ntt_parallel", "true_parallel"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes: notes(
			fmt.Sprintf("sequential sampling overhead: %.2f NTT per extra sample", seqSlope),
			fmt.Sprintf("parallel sampling overhead: %.2f NTT per extra sample (paper: 'no additional cost')", parSlope),
			fmt.Sprintf("overhead reduction: %.0f%% — paper: with 64 processors K=10 comes at (almost) no additional cost",
				100*(1-parSlope/seqSlope)),
		),
	}, nil
}
