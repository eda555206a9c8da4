package experiment

import (
	"fmt"

	"paratune/internal/core"
	"paratune/internal/noise"
	"paratune/internal/plot"
)

// ExtSharedNoise makes the Fig. 10 robustness finding reproducible: when the
// interference is machine-wide (one multiplier per time step, shared by all
// processors — the correlation the paper's own Fig. 3 exhibits), PRO's
// within-batch comparisons are exact, the Eq. 17 coupling keeps cross-batch
// comparisons order-consistent, and (1-ρ) normalisation cancels the mean
// inflation — so the tuned trajectory, the final configuration, and the NTT
// are all nearly independent of both ρ and the sample count K. Multi-sample
// estimation buys nothing under shared noise; it only matters when noise is
// independent per processor.
func ExtSharedNoise(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(400, 8)
	budget := 100
	rhos := []float64{0, 0.2, 0.4}
	ks := []int{1, 3, 5}
	if cfg.Quick {
		rhos = []float64{0, 0.4}
		ks = []int{1, 5}
	}

	seeds := repSeeds(cfg.Seed+9, reps)
	run := func(rho float64, k int, shared bool) (float64, float64, error) {
		est, err := minOfK(k)
		if err != nil {
			return 0, 0, err
		}
		ntts, truths, err := replicate(seeds, func(seed int64) (*core.Result, error) {
			// The shared model carries its per-step multiplier, so every
			// replication builds its own.
			model, err := paretoNoise(rho)
			if err == nil && shared && rho > 0 {
				model, err = noise.NewSharedIIDPareto(1.7, rho)
			}
			if err != nil {
				return nil, err
			}
			return proRun(core.Options{Space: db.Space(), R: 0.2}, db, model, est, budget, simProcs, false)(seed)
		})
		if err != nil {
			return 0, 0, err
		}
		return meanOf(ntts), meanOf(truths), nil
	}

	var rows [][]float64
	var lines []string
	sharedSeries := map[int][]float64{}
	indepSeries := map[int][]float64{}
	for _, k := range ks {
		for _, rho := range rhos {
			sNTT, sTrue, err := run(rho, k, true)
			if err != nil {
				return nil, err
			}
			iNTT, iTrue, err := run(rho, k, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []float64{rho, float64(k), sNTT, sTrue, iNTT, iTrue})
			sharedSeries[k] = append(sharedSeries[k], sNTT)
			indepSeries[k] = append(indepSeries[k], iNTT)
		}
	}

	series := make([]plot.Series, 0, 2*len(ks))
	for _, k := range ks {
		series = append(series,
			plot.Series{Name: fmt.Sprintf("shared K=%d", k), X: rhos, Y: sharedSeries[k]},
			plot.Series{Name: fmt.Sprintf("indep K=%d", k), X: rhos, Y: indepSeries[k]},
		)
	}
	rendered, err := plot.Line(plot.Config{
		Title:  "Extension — shared vs independent noise (avg NTT by rho)",
		XLabel: "rho", YLabel: "avg NTT",
	}, series...)
	if err != nil {
		return nil, err
	}

	// Shared noise: NTT at the highest rho should be within a few percent of
	// the noiseless NTT (normalisation cancels it); independent noise rises
	// steeply.
	base := sharedSeries[ks[0]][0]
	sharedRise := sharedSeries[ks[0]][len(rhos)-1]/base - 1
	indepRise := indepSeries[ks[0]][len(rhos)-1]/base - 1
	lines = append(lines,
		fmt.Sprintf("K=%d NTT rise from rho=0 to rho=%.1f: shared %+.1f%%, independent %+.1f%%",
			ks[0], rhos[len(rhos)-1], 100*sharedRise, 100*indepRise),
		"shared machine-wide noise leaves the tuned trajectory nearly unchanged: within-step comparisons are exact",
		"and (1-rho) normalisation cancels the common inflation — multi-sampling only matters for independent noise")
	return &Figure{
		ID:        "ext-shared-noise",
		Title:     "Machine-wide vs independent variability (robustness finding)",
		CSVHeader: []string{"rho", "samples", "ntt_shared", "true_shared", "ntt_independent", "true_independent"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     notes(lines...),
	}, nil
}
