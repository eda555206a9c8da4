package main

import (
	"fmt"
	"sort"
	"strings"
)

// Helpers that turn a traced window into per-layer figures. Span times in
// a traceData are nanoseconds; the totals returned here are seconds.

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// selfS is the summed self time, in seconds, of the named spans or leaves.
func selfS(td traceData, names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += td.names[n].self
	}
	return float64(ns) / 1e9
}

// rootTotal is the summed duration, in seconds, of the spans whose names
// start with one of prefixes: the worker-level spans whose union is the
// worker time the trace accounts for.
func rootTotal(td traceData, prefixes ...string) float64 {
	var ns int64
	for name, a := range td.names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				ns += a.total
				break
			}
		}
	}
	return float64(ns) / 1e9
}

// meanNS is the mean duration of one call of name in nanoseconds.
func meanNS(td traceData, name string) float64 {
	a := td.names[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count)
}

// meanSelfUS is the mean self time of one span of name in µs.
func meanSelfUS(td traceData, name string) float64 {
	a := td.names[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.self) / float64(a.count) / 1e3
}

// quantileLine reports the p-quantile of a name's sampled durations in µs,
// with the sample count behind it.
func (r *result) quantileLine(label string, td traceData, name string, p float64) {
	a := td.names[name]
	q := percentile(sortedDurs(a), p)
	r.line(label, q.Value, "us", fmt.Sprintf("(n=%d sampled of %d calls, %d beyond)", q.N, a.count, q.Beyond))
}

// pairLine reports the p-quantile of a paired-request population (ns).
func (r *result) pairLine(label string, ns []float64, p float64) {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = v / 1e3
	}
	sort.Float64s(xs)
	q := percentile(xs, p)
	r.line(label, q.Value, "us", fmt.Sprintf("(n=%d paired requests, %d beyond)", q.N, q.Beyond))
}

// unreached sets per-layer metrics the workload does not exercise to 0, so
// every traced run reports the full declared set.
func unreached(r *result, names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// serveLayer reports the harmony and core figures both serve workloads
// share: client round trips by op, the server busy / client-side split of
// paired requests, bytes per round trip, and the session engines' steps.
func serveLayer(r *result, td traceData, bytes *byteCount, rts int, clientSide, busy []float64) {
	for _, op := range []string{"register", "fetch", "fetchn", "report", "reportn", "best", "stats"} {
		name := "harmony.client." + op
		if td.names[name].count > 0 {
			r.quantileLine(name+"_us.p50", td, name, 0.5)
		}
	}
	r.pairLine("harmony.conn.server_busy_us.p50", busy, 0.5)
	r.pairLine("harmony.conn.server_busy_us.p99", busy, 0.99)
	r.pairLine("harmony.conn.client_side_us.p50", clientSide, 0.5)
	r.pairLine("harmony.conn.client_side_us.p99", clientSide, 0.99)
	r.line("core.step_self_us", meanSelfUS(td, "core.step"), "us", "(mean Step time minus its evaluations)")
	r.line("core.eval_wait_us", meanNS(td, "core.eval")/1e3, "us", "(mean time a Step waits for its batch to be measured)")
	steps := float64(td.counts["core.steps"])
	inits := float64(td.counts["core.inits"])
	r.metrics["harmony.conn.bytes_per_rt"] = float64(bytes.in.Load()+bytes.out.Load()) / float64(rts)
	r.metrics["core.steps_per_session"] = steps / inits
	r.metrics["core.points_per_step"] = float64(td.counts["core.points"]) / (steps + inits)
	r.metrics["sample.estimates_per_step"] = float64(td.names["sample.estimate"].count) / (steps + inits)
	if td.dropReqs > 0 {
		r.line("trace.dropped_requests", float64(td.dropReqs), "count", "(request store full; pairing covers the rest)")
	}
}
