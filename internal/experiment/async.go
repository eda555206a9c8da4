package experiment

import (
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/plot"
)

// ExtAsync quantifies footnote 1 of the paper: "Our actual tuning system
// works for applications that do not have this synchronization requirement."
// The same PRO search runs twice on identical noise seeds — once against the
// barrier-synchronised cluster (every sample step costs the max over all
// processors) and once against the asynchronous cluster (each processor
// advances its own clock, so a straggler delays only itself) — and the
// wall-clock cost of the tuning activity is compared. Heavy-tailed noise
// amplifies the barrier's max-of-P penalty, so the async advantage grows
// with ρ.
func ExtAsync(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(150, 6)
	const iters = 30
	const k = 2
	rhos := []float64{0, 0.1, 0.2, 0.3, 0.4}
	if cfg.Quick {
		rhos = []float64{0, 0.3}
	}

	seeds := repSeeds(cfg.Seed+7, reps)
	est, err := minOfK(k)
	if err != nil {
		return nil, err
	}
	// search runs the PRO search through ev for at most iters steps.
	search := func(ev core.Evaluator) error {
		alg, err := core.NewPRO(core.Options{Space: db.Space(), R: 0.2})
		if err != nil {
			return err
		}
		if err := alg.Init(ev); err != nil {
			return err
		}
		for i := 0; i < iters && !alg.Converged(); i++ {
			if _, err := alg.Step(ev); err != nil {
				return err
			}
		}
		return nil
	}

	var rows [][]float64
	var barrierMeans, asyncMeans, ratios []float64
	for _, rho := range rhos {
		model, err := paretoNoise(rho)
		if err != nil {
			return nil, err
		}
		var sumBarrier, sumAsync float64
		for _, seed := range seeds {
			bsim, err := cluster.New(simProcs, model, seed)
			if err != nil {
				return nil, err
			}
			if err := search(cluster.NewEvaluator(bsim, db, est)); err != nil {
				return nil, err
			}
			sumBarrier += bsim.TotalTime()

			// Async run, same seed.
			asim, err := cluster.NewAsync(simProcs, model, seed)
			if err != nil {
				return nil, err
			}
			if err := search(&cluster.AsyncEvaluator{Sim: asim, F: db, Est: est}); err != nil {
				return nil, err
			}
			sumAsync += asim.Makespan()
		}
		n := float64(reps)
		b, a := sumBarrier/n, sumAsync/n
		barrierMeans = append(barrierMeans, b)
		asyncMeans = append(asyncMeans, a)
		ratios = append(ratios, b/a)
		rows = append(rows, []float64{rho, b, a, b / a})
	}

	rendered, err := plot.Line(plot.Config{
		Title:  "Extension — barrier vs async tuning cost (wall-clock of the search)",
		XLabel: "rho", YLabel: "seconds",
	},
		plot.Series{Name: "barrier Total_Time", X: rhos, Y: barrierMeans},
		plot.Series{Name: "async makespan", X: rhos, Y: asyncMeans},
	)
	if err != nil {
		return nil, err
	}
	var lines []string
	for i, rho := range rhos {
		lines = append(lines, fmt.Sprintf("rho=%.2f: barrier %.2f vs async %.2f (speedup %.2fx)",
			rho, barrierMeans[i], asyncMeans[i], ratios[i]))
	}
	growing := ratios[len(ratios)-1] > ratios[0]
	lines = append(lines, fmt.Sprintf(
		"async speedup grows with variability: %v — heavy tails amplify the barrier's max-of-P penalty (footnote 1)", growing))
	return &Figure{
		ID:        "ext-async",
		Title:     "Asynchronous tuning extension (footnote 1)",
		CSVHeader: []string{"rho", "barrier_total_time", "async_makespan", "speedup"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     notes(lines...),
	}, nil
}
