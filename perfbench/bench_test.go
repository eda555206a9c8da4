package main

import (
	"encoding/json"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"paratune/internal/harmony"
	"paratune/internal/space"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRankWithCounts(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.99, 99, 1},
		{0.999, 100, 0},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		q := percentile(xs, c.p)
		if q.Value != c.want || q.N != 100 || q.Beyond != c.beyond {
			t.Errorf("p%g = %+v, want value %g, n 100, beyond %d", c.p, q, c.want, c.beyond)
		}
	}
	// Ties: samples equal to the quantile are not beyond it.
	q := percentile([]float64{1, 2, 2, 2, 3}, 0.5)
	if q.Value != 2 || q.Beyond != 1 {
		t.Errorf("tied p50 = %+v, want value 2, beyond 1", q)
	}
	if q := percentile(nil, 0.5); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample = %+v", q)
	}
}

func TestLatencyLinesPrintSampleCounts(t *testing.T) {
	r := newResult()
	res := newReservoir(10, 1)
	for _, v := range seq(40) {
		res.add(v)
	}
	ls := summarise(res)
	if ls.Seen != 40 || ls.P50.N != 10 {
		t.Fatalf("summary seen %d, sample %d; want 40 and 10", ls.Seen, ls.P50.N)
	}
	r.latencyLines("rt", ls)
	if len(r.report) != 4 {
		t.Fatalf("got %d lines, want p50, p99, p99.9 and max", len(r.report))
	}
	if !strings.Contains(r.report[1], "rt_p99_us") || !strings.Contains(r.report[1], "n=10 sampled of 40 timed, 0 beyond") {
		t.Errorf("p99 line %q lacks its sample counts", r.report[1])
	}
}

func TestReservoirBounded(t *testing.T) {
	r := newReservoir(8, 1)
	for _, v := range seq(5) {
		r.add(v)
	}
	if len(r.vals) != 5 {
		t.Fatalf("below capacity kept %d of 5", len(r.vals))
	}
	for _, v := range seq(1000) {
		r.add(v)
	}
	if len(r.vals) != 8 || r.seen != 1005 {
		t.Fatalf("kept %d (want 8), seen %d (want 1005)", len(r.vals), r.seen)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}

// fakeClock steps a tracer's clock by hand.
type fakeClock struct{ t int64 }

func (c *fakeClock) at(t int64) { c.t = t }

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	clk := &fakeClock{}
	tr.now = func() int64 { return clk.t }
	k := tr.newTrack()
	clk.at(0)
	k.begin("a")
	clk.at(10)
	k.begin("b")
	k.leaf("leaf", 5) // inside b
	clk.at(30)
	k.end() // b: 20 long, 15 self
	clk.at(40)
	k.begin("c")
	clk.at(45)
	k.end() // c: 5 long, 5 self
	clk.at(100)
	k.end() // a: 100 long, 100 - 20 - 5 = 75 self
	k.flush()
	td := tr.snapshot()
	for _, c := range []struct {
		name        string
		total, self int64
	}{{"a", 100, 75}, {"b", 20, 15}, {"c", 5, 5}, {"leaf", 5, 5}} {
		a := td.names[c.name]
		if a.count != 1 || a.total != c.total || a.self != c.self {
			t.Errorf("%s: count %d total %d self %d, want 1 %d %d", c.name, a.count, a.total, a.self, c.total, c.self)
		}
	}
	if got := selfS(td, "a", "b", "c", "leaf"); math.Abs(got-100e-9) > 1e-15 {
		t.Errorf("self times sum to %g s, want the root's 100ns", got)
	}
}

func TestPairRequestsSplitsRoundTrips(t *testing.T) {
	td := traceData{
		clients: []reqRec{{conn: 0, seq: 1, dur: 100}, {conn: 0, seq: 2, dur: 50}, {conn: 1, seq: 1, dur: 30}},
		servers: []reqRec{{conn: 0, seq: 1, dur: 40}, {conn: 1, seq: 1, dur: 10}},
	}
	clientSide, busy := pairRequests(td)
	if len(clientSide) != 2 || clientSide[0] != 60 || clientSide[1] != 20 || busy[0] != 40 || busy[1] != 10 {
		t.Errorf("client side %v, busy %v; want [60 20] and [40 10], the unmatched request left out", clientSide, busy)
	}
}

func TestClassifyFetch(t *testing.T) {
	p := space.Point{8, 4, 1}
	for _, c := range []struct {
		frs  []harmony.FetchResult
		want fetchKind
	}{
		{[]harmony.FetchResult{{Point: p, Tag: 3}, {Point: p, Tag: 4}}, fetchWork},
		{[]harmony.FetchResult{{Point: p, Tag: 0}, {Point: p, Tag: 7}}, fetchWork},
		{[]harmony.FetchResult{{Point: p, Tag: 0}}, fetchIdle},
		{[]harmony.FetchResult{{Point: p, Tag: 0, Converged: true}}, fetchConverged},
		{nil, fetchIdle},
	} {
		if got := classifyFetch(c.frs); got != c.want {
			t.Errorf("classifyFetch(%+v) = %d, want %d", c.frs, got, c.want)
		}
	}
}

func TestUsefulReports(t *testing.T) {
	if got := usefulReports(6, 6); got != 6 {
		t.Errorf("all accepted: %d", got)
	}
	if got := usefulReports(6, 4); got != 4 {
		t.Errorf("two rejected: %d", got)
	}
	if got := usefulReports(6, 9); got != 6 {
		t.Errorf("more accepted than sent counted %d", got)
	}
}

func TestUnattributedFrac(t *testing.T) {
	if got := unattributedFrac(9, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("9 of 10 covered: %g", got)
	}
	if got := unattributedFrac(10, 10); got != 0 {
		t.Errorf("fully covered: %g", got)
	}
	if got := unattributedFrac(0, 0); got != 1 {
		t.Errorf("empty window: %g", got)
	}
}

func TestThirdsDrift(t *testing.T) {
	even := [2]time.Duration{time.Second, time.Second}
	var th thirds
	for i := 0; i < 12; i++ {
		th.note(float64(i)+0.5, 12, 10)
	}
	if d := th.drift(even); d != 0 {
		t.Errorf("steady window drifts %g", d)
	}
	var drain thirds
	for i := 0; i < 12; i++ {
		drain.note(float64(i)+0.5, 12, 120-10*i)
	}
	first, last := drain.outer()
	if first != 420 || last != 100 {
		t.Fatalf("outer thirds %d/%d, want 420/100", first, last)
	}
	if d := drain.drift(even); math.Abs(d-320.0/420) > 1e-12 {
		t.Errorf("draining window drift %g", d)
	}
	// The same drain on a machine that gave the process less CPU in the
	// last third: the work per CPU second still falls.
	if d := drain.drift([2]time.Duration{time.Second, 500 * time.Millisecond}); math.Abs(d-(420-200.0)/420) > 1e-12 {
		t.Errorf("draining window on a busier machine drift %g", d)
	}
	// Work that halves because the process got half the CPU is steady.
	var slowed thirds
	for i := 0; i < 12; i++ {
		n := 10
		if i >= 8 {
			n = 5
		}
		slowed.note(float64(i)+0.5, 12, n)
	}
	if d := slowed.drift([2]time.Duration{time.Second, 500 * time.Millisecond}); d != 0 {
		t.Errorf("window slowed by other load drifts %g", d)
	}
	var empty thirds
	if d := empty.drift(even); d != 1 {
		t.Errorf("empty window drift %g, want 1", d)
	}
	if d := th.drift([2]time.Duration{0, time.Second}); d != 1 {
		t.Errorf("window without a CPU reading drift %g, want 1", d)
	}
	// Per round trip: a drain into idle round trips shows, a machine that
	// runs everything at half speed in the last third does not.
	var trips thirds
	for i := 0; i < 12; i++ {
		trips.note(float64(i)+0.5, 12, 10)
	}
	if d := drain.perOpDrift(trips); math.Abs(d-320.0/420) > 1e-12 {
		t.Errorf("drain per round trip drift %g", d)
	}
	var slowTrips thirds
	for i := 0; i < 12; i++ {
		n := 2
		if i >= 8 {
			n = 1
		}
		slowTrips.note(float64(i)+0.5, 12, n)
	}
	if d := slowed.perOpDrift(slowTrips); d != 0 {
		t.Errorf("slowed window per round trip drifts %g", d)
	}
	if d := th.perOpDrift(empty); d != 1 {
		t.Errorf("window without round trips drift %g, want 1", d)
	}
	if d := seriesDrift([]float64{10, 10, 10, 5, 5, 5}); d != 0.5 {
		t.Errorf("series drift %g, want 0.5", d)
	}
}

func TestStatTicks(t *testing.T) {
	steal, total := statTicks("cpu  100 5 20 800 10 1 2 30 7 0\ncpu0 50 2 10 400 5 0 1 15 3 0\n")
	if steal != 30 || total != 968 {
		t.Errorf("steal %d of %d ticks, want 30 of 968 (guest ticks are inside user)", steal, total)
	}
	if steal, total := statTicks("intr 1 2 3\n"); steal != 0 || total != 0 {
		t.Errorf("line without cpu ticks read %d/%d", steal, total)
	}
	if steal, total := statTicks("cpu  1 2 3\n"); steal != 0 || total != 0 {
		t.Errorf("short cpu line read %d/%d", steal, total)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1, 2, math.Inf(1)}
	a := &metrics.Float64Histogram{Counts: []uint64{0, 5, 0, 0}, Buckets: buckets}
	b := &metrics.Float64Histogram{Counts: []uint64{0, 5, 10, 0}, Buckets: buckets}
	// The window added ten observations, all in [1, 2).
	if got := histQuantile(a, b, 0.5); got != 1.5 {
		t.Errorf("median %g, want 1.5", got)
	}
	if got := histQuantile(a, a, 0.99); got != 0 {
		t.Errorf("empty window %g, want 0", got)
	}
}

func TestEncodeMatchesDeclaration(t *testing.T) {
	decl := []struct{ Name, Unit string }{{"x", "s"}, {"y", "1/s"}}
	r := newResult()
	r.attempted = 3
	r.check("ok", true, "")
	r.metrics["x"] = 1.5
	if _, err := encode(r, decl); err == nil {
		t.Error("missing metric y accepted")
	}
	r.metrics["y"] = 2
	r.metrics["z"] = 3
	if _, err := encode(r, decl); err == nil {
		t.Error("undeclared metric z accepted")
	}
	delete(r.metrics, "z")
	line, err := encode(r, decl)
	if err != nil {
		t.Fatal(err)
	}
	var out resultOut
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 3 || out.Metrics["y"].Unit != "1/s" || out.Metrics["x"].Value != 1.5 {
		t.Errorf("encoded %s", line)
	}
}

func TestGS2Index(t *testing.T) {
	seen := make(map[int]bool)
	for _, p := range []space.Point{{8, 4, 1}, {64, 32, 64}, {8, 4, 2}, {9, 4, 1}} {
		i, ok := gs2Index(p)
		if !ok || i < 0 || i >= gs2Theta*gs2Egrid*gs2Nodes || seen[i] {
			t.Errorf("gs2Index(%v) = %d, %v", p, i, ok)
		}
		seen[i] = true
	}
	for _, p := range []space.Point{{7, 4, 1}, {8, 4, 3}, {8.5, 4, 1}, {8, 33, 1}, {8, 4}} {
		if _, ok := gs2Index(p); ok {
			t.Errorf("off-grid %v accepted", p)
		}
	}
}
