package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
)

// sim-tune: the offline tuning path of `make results` on one goroutine:
// core.RunOnline with PRO, min-of-3, P=16, rho=0.3, alpha=1.7 and a
// 200-step budget, over a stream of run seeds cycling through 8 GS2
// surrogates generated in set-up (regenerating the surrogate per run would
// spend the window in set-up work). No codec, store or network is involved.
// A run whose search ends on a configuration its surrogate does not store
// spends its production phase in the surrogate's neighbour interpolation;
// those runs make the long tail of the run-time distribution.
const (
	simPool      = 8
	simProcs     = 16
	simRho       = 0.3
	simBudget    = 200
	simNTTRuns   = 32 // the fixed seed list sim_ntt averages over
	simRunSample = 1 << 14
)

// stepClock times each simulated application time step. The simulator calls
// BeginStep once per step on models that implement noise.StepAware, so the
// gap between consecutive calls is one step's wall time, the engine's work
// for it included. It passes every perturbation to the wrapped model and
// draws nothing from the step stream, so runs are unchanged by it. A run's
// 200 steps give the latency population enough samples for a steady p99,
// which a few hundred whole runs per window do not.
type stepClock struct {
	noise.Model
	last time.Time
	lat  *reservoir
}

func (c *stepClock) BeginStep(*rand.Rand) { c.tick(time.Now()) }

func (c *stepClock) tick(now time.Time) {
	if !c.last.IsZero() {
		c.lat.add(float64(now.Sub(c.last)) / float64(time.Microsecond))
	}
	c.last = now
}

// finish closes the run's last step.
func (c *stepClock) finish() { c.tick(time.Now()) }

type simEnv struct {
	seed  int64
	pool  []*objective.DB
	mins  []float64
	genMs float64 // median generation time of one surrogate
}

func newSimEnv(cfg config) (*simEnv, error) {
	e := &simEnv{seed: cfg.seed}
	gen := make([]float64, 0, simPool)
	for i := 0; i < simPool; i++ {
		t0 := time.Now()
		db := objective.GenerateGS2(objective.GS2Config{Seed: surrogateSeed + int64(i)})
		_, min, err := db.Min()
		if err != nil {
			return nil, err
		}
		gen = append(gen, float64(time.Since(t0))/1e6)
		e.pool = append(e.pool, db)
		e.mins = append(e.mins, min)
	}
	e.genMs = median(gen)
	return e, nil
}

// runSeed is the simulator seed of run i of the stream.
func (e *simEnv) runSeed(i int) int64 { return e.seed*1_000_003 + int64(i) + 1 }

// tune performs run i of the stream; with a track, every layer it reaches
// is wrapped for timing.
func (e *simEnv) tune(i int, k *track, steps *reservoir) (*core.Result, error) {
	if k != nil {
		k.begin("loadgen")
	}
	var f objective.Function = e.pool[i%simPool]
	m, err := noise.NewIIDPareto(paretoAlpha, simRho)
	if err != nil {
		return nil, err
	}
	var model noise.Model = m
	est, err := sample.NewMinOfK(3)
	if err != nil {
		return nil, err
	}
	var estimator sample.Estimator = est
	if k != nil {
		f = &tracedFunc{Function: f, t: k.t, leaf: k.leaf}
		model = &tracedModel{Model: m, t: k.t, leaf: k.leaf}
		estimator = &tracedEst{Estimator: est, t: k.t, leaf: k.leaf}
	}
	clock := &stepClock{Model: model, lat: steps}
	sim, err := cluster.New(simProcs, clock, e.runSeed(i))
	if err != nil {
		return nil, err
	}
	pro, err := core.NewPRO(core.Options{Space: f.Space()})
	if err != nil {
		return nil, err
	}
	var alg core.Algorithm = pro
	if k != nil {
		alg = &tracedAlg{Algorithm: pro, k: k, evalName: "cluster.eval"}
		k.end()
		k.begin("core.run")
		defer k.end()
	}
	res, err := core.RunOnline(alg, core.OnlineConfig{Sim: sim, F: f, Est: estimator, Budget: simBudget})
	clock.finish()
	return res, err
}

type simCounts struct {
	runs     int
	belowMin int // runs whose true value undercuts the surrogate minimum
	nttSum   float64
	nttRuns  int
	first    *core.Result
	// byThird holds the process CPU time of each run (µs) by the third of
	// the window it ended in, for the stationarity check.
	byThird [3][]float64
	runLat  *reservoir // whole-run wall time, µs
	steps   *reservoir // simulated time step wall time, µs
}

// phase runs the seed stream from its start for d.
func (e *simEnv) phase(d time.Duration, k *track) (simCounts, time.Duration, error) {
	c := simCounts{runLat: newReservoir(simRunSample, e.seed), steps: newReservoir(1<<17, e.seed+1)}
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t0, cpu0 := time.Now(), processCPU()
		res, err := e.tune(i, k, c.steps)
		el, cpu := time.Since(t0), processCPU()-cpu0
		if err != nil {
			return c, 0, fmt.Errorf("run %d: %w", i, err)
		}
		c.runLat.add(float64(el) / float64(time.Microsecond))
		c.runs++
		third := min(int(3*time.Since(start).Seconds()/d.Seconds()), 2)
		c.byThird[third] = append(c.byThird[third], float64(cpu)/float64(time.Microsecond))
		if res.TrueValue < e.mins[i%simPool] {
			c.belowMin++
		}
		if i < simNTTRuns {
			c.nttSum += res.NTT
			c.nttRuns++
		}
		if i == 0 {
			c.first = res
		}
	}
	if k != nil {
		k.flush()
	}
	return c, time.Since(start), nil
}

func runSimTune(cfg config) (*result, error) {
	env, setup, err := setupMedian(cfg.setups, func() (*simEnv, error) { return newSimEnv(cfg) }, func(*simEnv) error { return nil })
	if err != nil {
		return nil, err
	}
	if _, _, err := env.phase(cfg.warmup, nil); err != nil {
		return nil, err
	}
	r := newResult()
	if !cfg.trace {
		w := openWindow()
		c, elapsed, err := env.phase(cfg.seconds, nil)
		rt := w.close()
		if err != nil {
			return nil, err
		}
		ls := summarise(c.steps)
		commonE2E(r, float64(c.runs), rt.cpu.Seconds(), ls, setup, rt)
		if err := simReport(r, env, c, ls, elapsed); err != nil {
			return nil, err
		}
		return r, nil
	}

	base, baseEl, err := env.phase(cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	k := tr.newTrack()
	w := openWindow()
	c, elapsed, err := env.phase(cfg.seconds/2, k)
	rt := w.close()
	if err != nil {
		return nil, err
	}
	c.byThird = base.byThird // stationarity is judged on the untraced half
	if err := simReport(r, env, c, summarise(c.steps), elapsed); err != nil {
		return nil, err
	}
	td := tr.snapshot()
	loadgen := selfS(td, "loadgen")
	self := map[string]float64{
		"core":      selfS(td, "core.run", "core.init", "core.step"),
		"cluster":   selfS(td, "cluster.eval"),
		"objective": selfS(td, "objective.eval"),
		"noise":     selfS(td, "noise.perturb"),
		"sample":    selfS(td, "sample.estimate"),
		"loadgen":   loadgen,
	}
	layerFracs(r, elapsed.Seconds(), self)
	covered := rootTotal(td, "loadgen", "core.run")
	commonLayer(r, rt, float64(c.runs), elapsed, 1, covered, loadgen,
		float64(base.runs)/baseEl.Seconds(), float64(c.runs)/elapsed.Seconds())
	runs := float64(c.runs)
	steps := float64(td.counts["core.steps"])
	inits := float64(td.counts["core.inits"])
	r.metrics["objective.evals_per_run"] = float64(td.names["objective.eval"].count) / runs
	r.metrics["noise.perturbs_per_run"] = float64(td.names["noise.perturb"].count) / runs
	r.metrics["core.steps_per_session"] = steps / runs
	r.metrics["core.points_per_step"] = float64(td.counts["core.points"]) / (steps + inits)
	r.metrics["sample.estimates_per_step"] = float64(td.names["sample.estimate"].count) / (steps + inits)
	r.line("objective.eval_ns", meanNS(td, "objective.eval"), "ns", fmt.Sprintf("(mean of %d evaluations)", td.names["objective.eval"].count))
	r.line("noise.perturb_ns", meanNS(td, "noise.perturb"), "ns", fmt.Sprintf("(mean of %d draws)", td.names["noise.perturb"].count))
	r.line("cluster.eval_self_us", meanSelfUS(td, "cluster.eval"), "us", "(mean cluster Eval minus objective, noise and estimator calls)")
	r.line("core.step_self_us", meanSelfUS(td, "core.step"), "us", "(mean Step minus its evaluations)")
	r.line("core.eval_wait_us", meanNS(td, "cluster.eval")/1e3, "us", "(mean evaluation a Step waits for)")
	r.line("objective.generate_ms", env.genMs, "ms", "(median generation time of one surrogate, set-up)")
	unreached(r, "harmony.conn.bytes_per_rt", "harmony.fetch.items_per_rt", "harmony.fetch.idle_ratio",
		"harmony.report.rejected_ratio", "harmony.report.refused_ratio",
		"measuredb.wal_bytes_per_obs", "feddb.sync.frames_per_round", "feddb.sync.dup_ratio",
		"feddb.sync.bytes_per_frame", "feddb.snapshot.bytes")
	return r, nil
}

// simReport prints sim-tune's figures and checks: every true value at or
// above its surrogate's minimum, and a same-seed rerun of the stream's
// first run bit-identical in Best and TotalTime.
func simReport(r *result, env *simEnv, c simCounts, ls latencySummary, elapsed time.Duration) error {
	r.line("sim_runs_per_s", float64(c.runs)/elapsed.Seconds(), "1/s", "(per wall second)")
	r.latencyLines("step", ls)
	r.latencyLines("run", summarise(c.runLat))
	ntt := c.nttSum / math.Max(float64(c.nttRuns), 1)
	r.line("sim_ntt", ntt, "time", fmt.Sprintf("(mean NTT over the first %d seeds of the stream)", c.nttRuns))
	r.attempted = c.runs
	r.line("failed_frac", 0, "frac", fmt.Sprintf("(0 of %d runs; a failed run aborts the benchmark)", c.runs))
	r.check("sim_ntt_seed_list", c.nttRuns == simNTTRuns, "%d of %d seeds of the NTT list completed", c.nttRuns, simNTTRuns)
	r.check("sim_true_above_min", c.runs > 0 && c.belowMin == 0, "%d of %d runs below the surrogate minimum", c.belowMin, c.runs)
	if c.first == nil {
		r.check("sim_rerun_identical", false, "no run completed")
	} else {
		again, err := env.tune(0, nil, newReservoir(0, 0))
		if err != nil {
			return fmt.Errorf("rerun: %w", err)
		}
		same := sameBits(again.Best, c.first.Best) && math.Float64bits(again.TotalTime) == math.Float64bits(c.first.TotalTime)
		r.check("sim_rerun_identical", same, "seed %d rerun best %v total %v, first %v total %v",
			env.runSeed(0), again.Best, again.TotalTime, c.first.Best, c.first.TotalTime)
	}
	// Run times are bimodal — a run whose search ends on a configuration
	// its surrogate interpolates takes some 25 times longer — so the count
	// of runs per third swings with how many slow runs land in it. The
	// median run time does not, and it still moves when the per-run cost
	// drifts. It is taken in process CPU time, which other load on the
	// machine leaves alone, where wall time stretches with it.
	first, last := median(append([]float64(nil), c.byThird[0]...)), median(append([]float64(nil), c.byThird[2]...))
	d := relDiff(first, last)
	r.check("stationary", d <= driftTol, "median run CPU time first/last third %.0f/%.0f us, drift %.3f (limit %.2f); runs by third %d/%d/%d",
		first, last, d, driftTol, len(c.byThird[0]), len(c.byThird[1]), len(c.byThird[2]))
	return nil
}
