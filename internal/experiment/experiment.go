// Package experiment regenerates every figure in the paper's evaluation
// (the paper has no numbered tables): the metric-discrepancy illustration
// (Fig. 1), the variability study (Figs. 3–7), the GS2 surface (Fig. 8),
// the initial-simplex study (Fig. 9), and the headline multi-sampling sweep
// (Fig. 10), plus the ablations DESIGN.md calls out.
//
// Every runner is deterministic under a fixed Config.Seed, returns the raw
// data as CSV-ready rows, an ASCII rendering, and notes comparing the
// measured shape to the paper's claims.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
)

// Config scales an experiment run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Replications per configuration; each figure documents its paper-scale
	// value. 0 selects the figure's default.
	Replications int
	// Quick shrinks replication counts and sweeps for tests and smoke runs.
	Quick bool
}

func (c Config) reps(def, quick int) int {
	if c.Replications > 0 {
		return c.Replications
	}
	if c.Quick {
		return quick
	}
	return def
}

// Figure is one regenerated result.
type Figure struct {
	ID        string
	Title     string
	CSVHeader []string
	CSVRows   [][]float64
	Rendered  string
	Notes     string
}

// Runner regenerates one figure.
type Runner func(Config) (*Figure, error)

// Registry maps figure IDs to runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig1", Fig1MetricDiscrepancy},
		{"fig2", Fig2SimplexGeometry},
		{"fig3", Fig3Traces},
		{"fig4", Fig4Pdf},
		{"fig5", Fig5Tail},
		{"fig6", Fig6TruncatedPdf},
		{"fig7", Fig7TruncatedTail},
		{"fig8", Fig8Surface},
		{"fig9", Fig9InitialSimplex},
		{"fig10", Fig10MultiSampling},
		{"ablation-estimators", AblationEstimators},
		{"ablation-expansion", AblationExpansionCheck},
		{"ablation-accept", AblationAcceptRule},
		{"ablation-projection", AblationProjection},
		{"ablation-remeasure", AblationRemeasure},
		{"ext-adaptive-k", ExtAdaptiveK},
		{"ext-async", ExtAsync},
		{"ext-parallel-sampling", ExtParallelSampling},
		{"ext-shared-noise", ExtSharedNoise},
	}
}

// Run looks a figure up by ID and executes it.
func Run(id string, cfg Config) (*Figure, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("experiment: unknown figure %q", id)
}

// simProcs is the simulated SPMD width for the tuning experiments. The
// paper's GS2 runs used a 64-node cluster, but its §6 simulations gate each
// time step on the points being evaluated (≤ 2N = 6 candidates for the
// three-parameter space); 8 processors cover the candidate batch plus a
// small incumbent-running remainder.
const simProcs = 8

// gs2DB builds the canonical surrogate database for a seed.
func gs2DB(seed int64) *objective.DB {
	return objective.GenerateGS2(objective.GS2Config{Seed: seed, Coverage: 0.85})
}

// repSeeds draws the replication seeds a figure shares across all of its
// configurations (common random numbers reduce comparison variance).
func repSeeds(seed int64, reps int) []int64 {
	rng := dist.NewRNG(seed)
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	return seeds
}

// paretoNoise is the §6 variability model: i.i.d. Pareto(α = 1.7) noise at
// idle throughput rho, and no noise at rho <= 0.
func paretoNoise(rho float64) (noise.Model, error) {
	if rho <= 0 {
		return noise.None{}, nil
	}
	return noise.NewIIDPareto(1.7, rho)
}

// minOfK is the §5 estimator: the minimum of k samples, a single sample for
// k <= 1.
func minOfK(k int) (sample.Estimator, error) {
	if k <= 1 {
		return sample.Single{}, nil
	}
	return sample.NewMinOfK(k)
}

// onlineRun performs one tuning run of alg over f on a procs-wide simulated
// cluster under model, estimating each candidate with est.
func onlineRun(alg core.Algorithm, f objective.Function, model noise.Model, est sample.Estimator, budget, procs int, seed int64, parallel bool) (*core.Result, error) {
	sim, err := cluster.New(procs, model, seed)
	if err != nil {
		return nil, err
	}
	return core.RunOnline(alg, core.OnlineConfig{Sim: sim, F: f, Est: est, Budget: budget, ParallelSampling: parallel})
}

// proRun is replicate's run for PRO built from opts; the other arguments are
// onlineRun's.
func proRun(opts core.Options, f objective.Function, model noise.Model, est sample.Estimator, budget, procs int, parallel bool) func(seed int64) (*core.Result, error) {
	return func(seed int64) (*core.Result, error) {
		alg, err := core.NewPRO(opts)
		if err != nil {
			return nil, err
		}
		return onlineRun(alg, f, model, est, budget, procs, seed, parallel)
	}
}

// replicate performs run once per seed and returns each run's NTT and final
// true value, in seed order.
func replicate(seeds []int64, run func(seed int64) (*core.Result, error)) (ntt, truth []float64, err error) {
	ntt = make([]float64, len(seeds))
	truth = make([]float64, len(seeds))
	for i, seed := range seeds {
		res, err := run(seed)
		if err != nil {
			return nil, nil, err
		}
		ntt[i], truth[i] = res.NTT, res.TrueValue
	}
	return ntt, truth, nil
}

// meanOf averages a slice.
func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// argminIdx returns the index of the smallest element.
func argminIdx(xs []float64) int {
	bi := 0
	for i, x := range xs {
		if x < xs[bi] {
			bi = i
		}
	}
	return bi
}

// notes joins note lines.
func notes(lines ...string) string { return strings.Join(lines, "\n") }

// sortedKeys returns sorted float keys of a map.
func sortedKeys(m map[float64][]float64) []float64 {
	ks := make([]float64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Float64s(ks)
	return ks
}
