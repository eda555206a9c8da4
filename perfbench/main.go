// Command perfbench is paratune's end-to-end benchmark. One invocation runs
// one workload for a fixed window and prints a human-readable report
// followed, as its last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// Usage (from the repository root):
//
//	go run ./perfbench --workload serve-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it measures the first half of the window
// untraced, rebuilds the system with timing wrappers at its layer seams,
// measures the second half traced, and reports the per-layer metrics. A
// run whose correctness checks fail still prints its result, with
// "correct": false; it exits nonzero only when it produced no result. The
// metric names and units printed are checked against BENCHMARK.json, read
// from the working directory. See perfbench/README.md for the workloads and
// what each metric means on each of them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	warmup  time.Duration
	setups  int    // setups per run; setup_s is their median
	workDir string // scratch directory for stores, inside the checkout
}

// check is one correctness condition of a workload.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is what a workload run produces.
type result struct {
	checks    []check
	attempted int
	failed    int
	metrics   map[string]float64 // the declared metrics of this run's mode
	report    []string           // human-readable lines, printed before the JSON
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// line adds a report line: a named quantity, its value and unit, and an
// optional note (sample counts, which workload metric it stands for).
func (r *result) line(name string, v float64, unit, note string) {
	s := fmt.Sprintf("%-34s %14.6g %-6s", name, v, unit)
	if note != "" {
		s += " " + note
	}
	r.report = append(r.report, strings.TrimRight(s, " "))
}

// latencyLines reports a latency population in microseconds with the
// sample counts behind each quantile.
func (r *result) latencyLines(prefix string, l latencySummary) {
	for _, q := range []struct {
		name string
		q    quantile
	}{{"p50", l.P50}, {"p99", l.P99}, {"p99.9", l.P999}, {"max", l.Max}} {
		r.line(prefix+"_"+q.name+"_us", q.q.Value, "us",
			fmt.Sprintf("(n=%d sampled of %d timed, %d beyond)", q.q.N, l.Seen, q.q.Beyond))
	}
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// driftTol bounds the first/last-third disagreement of a workload's work
// rate; it equals the throughput bound in BENCHMARK.json. A workload that
// drains into idle traffic moves it by far more.
const driftTol = 0.25

// stationarity is the serve workloads' self-check: it fails the run when
// the useful work per round trip of the first and last third of the window
// (th over ops) disagrees by more than driftTol, so a workload that drains
// into idle traffic reports no number it cannot sustain. The work per CPU
// second and per wall second are printed beside it and not judged: both
// also move when the machine speeds up or slows down under the run, which
// on a shared virtual machine they did by 20% within seconds.
func (r *result) stationarity(th, ops thirds, cpu [2]time.Duration) {
	d := th.perOpDrift(ops)
	first, last := th.outer()
	of, ol := ops.outer()
	r.check("stationary", d <= driftTol, "first/last third work %d/%d over %d/%d round trips, drift %.3f (limit %.2f); per CPU second %.3f, per wall second %.3f; by twelfths %v",
		first, last, of, ol, d, driftTol, th.drift(cpu), relDiff(float64(first), float64(last)), th)
}

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// encode builds the final JSON line. Every declared metric of the mode must
// be present and finite, and nothing undeclared may be: the benchmark and
// its declaration cannot drift apart silently.
func encode(r *result, decl []struct{ Name, Unit string }) ([]byte, error) {
	out := resultOut{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut)}
	for _, m := range decl {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared but not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %s", strings.Join(extra, ", "))
	}
	if out.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(out)
}

var workloads = map[string]func(config) (*result, error){
	"serve-batch": runServeBatch,
	"serve-warm":  runServeWarm,
	"sim-tune":    runSimTune,
	"fed-sync":    runFedSync,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-batch, serve-warm, sim-tune or fed-sync")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve-batch|serve-warm|sim-tune|fed-sync), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench: work dir:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: work dir:", err)
		return 1
	}
	defer os.RemoveAll(work)

	window := time.Duration(*seconds) * time.Second
	cfg := config{
		seed: *seed, seconds: window, trace: *trace == 1,
		warmup: window / 10, setups: 5, workDir: work,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintln(stdout, runMeta())
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, l := range res.report {
		fmt.Fprintln(stdout, l)
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "check %-28s %-6s %s\n", c.name, status, c.detail)
	}
	list := decl.EndToEnd
	if cfg.trace {
		list = decl.PerLayer
	}
	line, err := encode(res, list)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A failed check is reported through "correct"; a nonzero exit means
	// no result was produced.
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupTimes is the median set-up of a run in process CPU seconds, the
// gated setup_s, and in wall seconds.
type setupTimes struct{ cpu, wall float64 }

// setupMedian runs setup n times, closing all but the last environment,
// and returns the last one with the median setup times. Repeating set-up is
// what makes setup_s steady enough to gate on. setup_s is taken in process
// CPU time: on a virtual machine the hypervisor takes CPUs away for seconds
// at a time, which stretches wall time without the program doing more
// work, while work moved into set-up shows in CPU time even when it is
// spread over goroutines.
func setupMedian[E any](n int, setup func() (E, error), closeEnv func(E) error) (E, setupTimes, error) {
	var env E
	cpu := make([]float64, 0, n)
	wall := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := closeEnv(env); err != nil {
				return env, setupTimes{}, err
			}
		}
		t0, c0 := time.Now(), processCPU()
		e, err := setup()
		if err != nil {
			return env, setupTimes{}, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (processCPU() - c0).Seconds())
		env = e
	}
	return env, setupTimes{cpu: median(cpu), wall: median(wall)}, nil
}

// window brackets one measured phase with runtime readings and a live-heap
// sampler.
type window struct {
	start rtSample
	heap  *heapWatch
}

func openWindow() *window {
	return &window{start: readRuntime(), heap: watchHeap(10 * time.Millisecond)}
}

func (w *window) close() rtWindow {
	peak := w.heap.done()
	return runtimeDelta(w.start, readRuntime(), peak)
}

// commonE2E fills the end-to-end metrics every workload reports. ops is
// the window's useful work in the workload's unit and cpuS the process CPU
// seconds it took. Throughput is gated per CPU second, not per wall second:
// the wall rate, which each workload prints by its own name, also falls by
// whatever share of the machine the hypervisor takes away (host.steal_frac),
// and on a shared virtual machine that share moves by tens of percent from
// one minute to the next.
func commonE2E(r *result, ops, cpuS float64, lat latencySummary, setup setupTimes, rt rtWindow) {
	r.metrics["throughput_per_cpu_s"] = ops / cpuS
	r.metrics["latency_p50_us"] = lat.P50.Value
	r.metrics["latency_p99_us"] = lat.P99.Value
	r.metrics["setup_s"] = setup.cpu
	r.metrics["peak_heap_mb"] = float64(rt.peakLive) / (1 << 20)
	r.line("throughput_per_cpu_s", ops/cpuS, "1/cpu-s", fmt.Sprintf("(%.0f units of work over %.3f process CPU s)", ops, cpuS))
	r.line("setup_s", setup.cpu, "s", fmt.Sprintf("(median process CPU time of the run's set-ups; wall %.3f s)", setup.wall))
	r.line("peak_heap_mb", float64(rt.peakLive)/(1<<20), "MB", "(peak live heap in the window)")
	r.line("host.steal_frac", rt.steal, "frac", "(share of the machine's CPU time the hypervisor took in the window)")
	r.line("runtime.gc_cycles", float64(rt.gcCycles), "count", "(in the window)")
	r.line("runtime.gc_pause_p99_us", rt.pauseP99*1e6, "us", fmt.Sprintf("(over the last %d GC cycles' stop-the-world pauses)", rt.pauses))
	r.line("runtime.sched_latency_p99_us", rt.schedP99*1e6, "us", "(time runnable goroutines waited for a CPU)")
}

// commonLayer fills the runtime and remainder metrics every traced run
// reports. ops is the workload's unit of useful work in the traced window;
// workers is how many goroutines drive load (the wall-time base of the
// layer budget); covered is the worker time the layer spans account for;
// baseRate and rate are the untraced and traced throughputs.
func commonLayer(r *result, rt rtWindow, ops float64, elapsed time.Duration, workers int, covered, loadgen float64, baseRate, rate float64) {
	wall := elapsed.Seconds() * float64(workers)
	r.metrics["runtime.alloc_bytes_per_op"] = float64(rt.allocBytes) / ops
	r.metrics["runtime.gc_cycles"] = float64(rt.gcCycles)
	r.metrics["runtime.gc_pause_p99_us"] = rt.pauseP99 * 1e6
	r.metrics["runtime.sched_latency_p99_us"] = rt.schedP99 * 1e6
	cpuShare := 0.0
	if rt.cpu > 0 {
		cpuShare = loadgen / rt.cpu.Seconds()
	}
	r.metrics["loadgen.cpu_share"] = cpuShare
	r.metrics["unattributed_frac"] = unattributedFrac(covered, wall)
	r.metrics["trace.overhead_frac"] = 1 - rate/baseRate
	r.line("trace.untraced_rate", baseRate, "1/s", "(first half of the window, no wrappers)")
	r.line("trace.traced_rate", rate, "1/s", "(second half, traced)")
	r.line("runtime.cpu_s", rt.cpu.Seconds(), "s", fmt.Sprintf("(process CPU over %.2fs traced wall, %d workers)", elapsed.Seconds(), workers))
}

// layers are the modules a traced run attributes time to. Each gets a
// <layer>.self_frac metric on every workload: its self time as a share of
// worker wall time, 0 where the workload does not reach the layer.
var layers = []string{"harmony.client", "harmony.server", "core", "sample", "cluster", "noise", "objective", "measuredb", "feddb", "loadgen"}

func layerFracs(r *result, wall float64, self map[string]float64) {
	for _, l := range layers {
		r.metrics[l+".self_frac"] = self[l] / wall
	}
	for l := range self {
		if _, ok := r.metrics[l+".self_frac"]; !ok {
			panic("perfbench: self time for unknown layer " + l)
		}
	}
}
