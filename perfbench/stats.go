package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"paratune/internal/harmony"
)

// quantile is one order statistic of a sample, reported with the number of
// samples it was taken from and how many lie strictly beyond it, so a reader
// can tell a p99 over ten thousand samples from one over ten.
type quantile struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted: the
// smallest value with at least a p share of the sample at or below it.
func percentile(sorted []float64, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{P: p}
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := sorted[rank-1]
	beyond := n - sort.Search(n, func(i int) bool { return sorted[i] > v })
	return quantile{P: p, Value: v, N: n, Beyond: beyond}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// reservoir keeps a fixed-size uniform random sample of a stream (Vitter's
// algorithm R), so latency percentiles cost constant memory however many
// operations a run completes and the live heap does not grow with
// throughput.
type reservoir struct {
	vals []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{vals: make([]float64, 0, size), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Intn(r.seen); j < len(r.vals) {
		r.vals[j] = v
	}
}

// merge folds o's sample into r. The union is uniform over both streams
// only when their rates are alike, as they are for the connections of one
// workload.
func (r *reservoir) merge(o *reservoir) {
	r.vals = append(r.vals, o.vals...)
	r.seen += o.seen
}

func (r *reservoir) clear() { r.vals, r.seen = r.vals[:0], 0 }

// latencySummary is the percentile set printed for one latency population:
// p50 and p99 are gated, p99.9 and max are diagnostics. Seen is the number
// of operations timed; the quantiles are taken over the retained sample.
type latencySummary struct {
	Seen                int
	P50, P99, P999, Max quantile
}

// summarise merges reservoirs and takes the reported quantiles.
func summarise(rs ...*reservoir) latencySummary {
	var all []float64
	seen := 0
	for _, r := range rs {
		all = append(all, r.vals...)
		seen += r.seen
	}
	sort.Float64s(all)
	return latencySummary{
		Seen: seen,
		P50:  percentile(all, 0.50),
		P99:  percentile(all, 0.99),
		P999: percentile(all, 0.999),
		Max:  percentile(all, 1),
	}
}

// thirds counts completed work over the timed window in twelve equal
// slices; the stationarity self-check compares the first and last third.
type thirds [12]int

// note counts n units completed at elapsed time t of a window of length w.
func (c *thirds) note(t, w float64, n int) {
	i := int(float64(len(c)) * t / w)
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	c[i] += n
}

func (c *thirds) merge(o thirds) {
	for i := range c {
		c[i] += o[i]
	}
}

// outer returns the work done in the first and in the last third.
func (c thirds) outer() (first, last int) {
	k := len(c) / 3
	for i := 0; i < k; i++ {
		first += c[i]
		last += c[len(c)-k+i]
	}
	return first, last
}

// drift is the relative disagreement between the work rates of the first
// and the last third, each taken per second of the process CPU time spent
// in that third (cpu, as cpuThirds measures it). A window with no work or
// no CPU time in either third reports 1.
func (c thirds) drift(cpu [2]time.Duration) float64 {
	a, b := c.outer()
	if cpu[0] <= 0 || cpu[1] <= 0 {
		return 1
	}
	return relDiff(float64(a)/cpu[0].Seconds(), float64(b)/cpu[1].Seconds())
}

// perOpDrift is the relative disagreement between the first and the last
// third in work per operation: c counts the work, ops the operations that
// carried it (round trips). It does not depend on how fast the machine
// ran, only on what the operations achieved. A third without operations
// reports 1.
func (c thirds) perOpDrift(ops thirds) float64 {
	a, b := c.outer()
	oa, ob := ops.outer()
	if oa == 0 || ob == 0 {
		return 1
	}
	return relDiff(float64(a)/float64(oa), float64(b)/float64(ob))
}

// relDiff is |a-b| / max(a, b); two zeros report 1, as a window without
// work is not a steady one.
func relDiff(a, b float64) float64 {
	hi := math.Max(a, b)
	if hi <= 0 {
		return 1
	}
	return math.Abs(a-b) / hi
}

// fetchKind classifies a fetch answer from the generator's side.
type fetchKind int

const (
	fetchWork      fetchKind = iota // at least one tagged candidate to measure
	fetchIdle                       // tag 0 only: nothing to measure yet, session still tuning
	fetchConverged                  // tag 0 with Converged: the session is done
)

// classifyFetch decides what a fetch or fetchn answer is worth. Tag-0
// answers cost a round trip but carry no measurement; only tagged items
// become reports, so tag-0 traffic can never be counted as useful work.
func classifyFetch(frs []harmony.FetchResult) fetchKind {
	for _, fr := range frs {
		if fr.Tag != 0 {
			return fetchWork
		}
	}
	if len(frs) > 0 && frs[0].Converged {
		return fetchConverged
	}
	return fetchIdle
}

// usefulReports is how many of a reportn frame's tagged items count as
// useful measurements: the accepted ones, never more than were sent.
func usefulReports(sent, accepted int) int {
	if accepted > sent {
		return sent
	}
	return accepted
}

// unattributedFrac is 1 - covered/wall: the share of the workers' wall
// time that no layer span accounts for. covered is the summed duration of
// the worker-level spans, wall the window length times the workers.
func unattributedFrac(covered, wall float64) float64 {
	if wall <= 0 {
		return 1
	}
	return 1 - covered/wall
}
