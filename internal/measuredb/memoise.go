package measuredb

import (
	"paratune/internal/event"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// BatchEvaluator is the engine's evaluator shape (core.Evaluator, matched
// structurally so this package stays below core in the import graph).
type BatchEvaluator interface {
	Eval(points []space.Point) ([]float64, error)
}

// EstimateCache is a read-through estimate cache that can stand in for the
// store on the warm-start path (implemented by feddb.Cache, which fills
// through [Store.Estimate]). Lookup returns the cached or freshly computed
// estimate for p, whether any contributing observation arrived via
// federation, and how many observations backed it; ok is false while the
// store holds too few observations to estimate.
type EstimateCache interface {
	Lookup(p space.Point) (v float64, federated bool, count int, ok bool)
}

// Memo wraps a batch evaluator with the store's exact-match memoisation: a
// candidate whose configuration already has at least K stored raw
// observations is served by [Store.Estimate] (or by Cache) and spends no
// simulator steps or client measurements. Unresolved candidates are
// forwarded to the inner evaluator in one batch (whose measurements reach
// the store through the cluster's observation sink or the harmony report
// path), preserving batch semantics for the optimiser. It is the warm start
// of core.RunOnline, core.RunOnlineAsync and every harmony session.
//
// Every lookup is mirrored to the event stream as db_hit or db_miss.
//
// Memo is driven by a single engine goroutine and is not safe for concurrent
// use; the store underneath it is.
type Memo struct {
	// Session labels the db_hit/db_miss payloads with a harmony session
	// name; empty for the simulated drivers.
	Session string
	// Cache, when non-nil, answers lookups in place of the store.
	Cache EstimateCache

	inner BatchEvaluator
	store *Store
	est   sample.Estimator
	rec   event.Recorder
	vtime func() float64

	hits   int
	misses int

	// Scratch reused across Eval calls.
	obsBuf  []float64
	missPts []space.Point
	missIdx []int
}

// NewMemo builds the memoising evaluator. est must be the same estimator the
// live measurement path uses, so served values are bit-identical to what
// re-measuring would have produced under the stored observations. vtime
// supplies the current virtual time for event payloads; nil records 0.
func NewMemo(inner BatchEvaluator, store *Store, est sample.Estimator, rec event.Recorder, vtime func() float64) *Memo {
	return &Memo{
		inner: inner,
		store: store,
		est:   est,
		rec:   event.OrNop(rec),
		vtime: vtime,
	}
}

// Eval implements the engine evaluator: resolve what the store can, measure
// the rest.
func (m *Memo) Eval(points []space.Point) ([]float64, error) {
	out := make([]float64, len(points))
	m.missPts = m.missPts[:0]
	m.missIdx = m.missIdx[:0]
	k := m.est.K()
	var vt float64
	if m.vtime != nil {
		vt = m.vtime()
	}
	for i, p := range points {
		v, federated, count, ok := m.lookup(p, k)
		if ok {
			out[i] = v
			m.hits++
			m.rec.Record(event.DBHit{
				Session: m.Session, Config: p.Key(), Value: v, Count: k, Source: hitSource(federated), VTime: vt,
			})
			continue
		}
		m.misses++
		m.rec.Record(event.DBMiss{
			Session: m.Session, Config: p.Key(), Count: count, VTime: vt,
		})
		m.missIdx = append(m.missIdx, i)
		m.missPts = append(m.missPts, p)
	}
	if len(m.missPts) > 0 {
		ys, err := m.inner.Eval(m.missPts)
		if err != nil {
			return nil, err
		}
		for j, i := range m.missIdx {
			out[i] = ys[j]
		}
	}
	return out, nil
}

// lookup answers one candidate from Cache when set, else from the store.
func (m *Memo) lookup(p space.Point, k int) (v float64, federated bool, count int, ok bool) {
	if m.Cache != nil {
		return m.Cache.Lookup(p)
	}
	m.obsBuf, v, federated, ok = m.store.Estimate(m.obsBuf[:0], p, m.est, k)
	return v, federated, len(m.obsBuf), ok
}

// hitSource maps the provenance flag to the db_hit Source tag. Local hits
// stay untagged so single-node traces are byte-identical to before.
func hitSource(federated bool) string {
	if federated {
		return "federated"
	}
	return ""
}

// Hits returns how many candidate evaluations were served from the store.
func (m *Memo) Hits() int { return m.hits }

// Misses returns how many candidate evaluations went to the inner evaluator.
func (m *Memo) Misses() int { return m.misses }
