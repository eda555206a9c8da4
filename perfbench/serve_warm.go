package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// serve-warm: harmonyd configured as with -db — a disk-backed measuredb
// store behind a feddb.Cache — after one cold reference session has filled
// the store. The window is a stream of fresh sessions on 2 connections
// speaking the default wire, each following the RunLoop protocol
// (register, fetch until converged, best). Warm start answers every
// candidate from the store, so the read path — registration, per-op codec
// cost, cache lookups — is what is measured.
const (
	warmWorkers = 2
	// warmMaxPolls bounds the idle fetches one warm session may take before
	// the run fails: a warm session that never converges is a bug.
	warmMaxPolls = 1 << 20
)

// missCounter is the server's event recorder: it counts db_miss events, the
// warm-start failures the fed-smoke headline requires to be zero.
type missCounter struct{ n atomic.Int64 }

func (m *missCounter) Record(e event.Event) {
	if e.EventKind() == event.KindDBMiss {
		m.n.Add(1)
	}
}

type warmEnv struct {
	rig     *rig
	store   *measuredb.Store
	cache   *feddb.Cache
	misses  *missCounter
	openMs  float64
	workers []*warmWorker
}

type warmCounts struct {
	sessions int
	rts      int // round trips, filled from the latency sample's count
	fetches  int
	polls    int // tag-0 fetches before the session converged
	tagged   int // fetches that asked for a measurement: none on a warm store
	badBest  int
	offBest  space.Point      // the first best point off the reference, if any
	th       thirds           // warm sessions by twelfth of the window
	fetchTh  thirds           // fetch round trips by twelfth
	cpu      [2]time.Duration // process CPU in the first and last third
}

type warmWorker struct {
	rtClock
	id      int
	cl      *harmony.Client
	n       int
	params  []space.Parameter
	refBest space.Point
	tab     *gs2Table
	model   noise.Model
	rng     *rand.Rand
	sess    *reservoir // whole warm sessions, register to best, µs
	c       warmCounts
}

// warmPhase is what one phase of serve-warm measured.
type warmPhase struct {
	c        warmCounts
	rt, sess *reservoir
	elapsed  time.Duration
	misses   int64 // db_miss events
}

func newWarmEnv(cfg config, tr *tracer, dir string) (*warmEnv, error) {
	tab, err := newGS2Table(objective.GenerateGS2(objective.GS2Config{Seed: surrogateSeed}))
	if err != nil {
		return nil, err
	}
	model, err := noise.NewIIDPareto(paretoAlpha, serveRho)
	if err != nil {
		return nil, err
	}
	sp := objective.GS2Space()
	t0 := time.Now()
	store, err := measuredb.Open(dir, measuredb.Options{Seed: cfg.seed, Origin: "perfbench", Space: sp.String()})
	if err != nil {
		return nil, err
	}
	env := &warmEnv{store: store, misses: &missCounter{}, openMs: float64(time.Since(t0)) / 1e6}
	est, err := sample.NewMinOfK(3)
	if err != nil {
		return nil, err
	}
	var cest sample.Estimator = est
	if tr != nil {
		cest = &tracedEst{Estimator: est, t: tr, leaf: tr.sharedLeaf}
	}
	env.cache = feddb.NewCache(store, cest, est.K(), 0)
	opts := harmony.ServerOptions{DB: store, Cache: env.cache, IdleTimeout: retireAfter, Recorder: env.misses, Estimator: cest}
	if tr != nil {
		opts.Cache = &tracedCache{c: env.cache, t: tr}
		opts.NewAlgorithm = tracedFactory(tr)
	}
	env.rig = startRig(opts, tr, "harmony.server")
	params := spaceParams(sp)

	// The cold reference session: every candidate measured by the
	// generator and recorded into the store. Noise is drawn only for tagged
	// fetches, so its path — and the warm path every later session replays
	// — is a function of the seed alone, not of how many idle polls the
	// timing produced.
	refCl, _, err := env.rig.client("", cfg.seed)
	if err != nil {
		env.close()
		return nil, err
	}
	ref := &warmWorker{rtClock: rtClock{lat: newReservoir(0, 0)}, cl: refCl, tab: tab, model: model, rng: rand.New(rand.NewSource(cfg.seed * 17))}
	err = refCl.Register("ref", params)
	if err == nil {
		err = ref.tune("ref")
	}
	var refBest space.Point
	if err == nil {
		refBest, _, _, err = refCl.Best("ref")
	}
	_ = refCl.Close() // memory pipe; nothing to flush
	if err != nil {
		env.close()
		return nil, fmt.Errorf("reference session: %w", err)
	}

	for w := 0; w < warmWorkers; w++ {
		cl, conn, err := env.rig.client("", cfg.seed+int64(w)+1)
		if err != nil {
			env.close()
			return nil, err
		}
		d := &warmWorker{
			rtClock: rtClock{conn: conn, lat: newReservoir(1<<16, cfg.seed+int64(w))},
			id:      w, cl: cl, params: params, refBest: refBest,
			tab: tab, model: model, rng: rand.New(rand.NewSource(cfg.seed*29 + int64(w))),
			sess: newReservoir(1<<16, cfg.seed+int64(w)+7),
		}
		if tr != nil {
			d.k = tr.newTrack()
			d.k.client = true
		}
		env.workers = append(env.workers, d)
	}
	return env, nil
}

func (e *warmEnv) close() error {
	for _, d := range e.workers {
		_ = d.cl.Close() // memory pipe; nothing to flush
	}
	err := e.rig.close()
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *warmEnv) phase(d time.Duration) (warmPhase, error) {
	misses0 := e.misses.n.Load()
	var wg sync.WaitGroup
	errs := make([]error, len(e.workers))
	start := time.Now()
	cpu := watchCPUThirds(start, d)
	for i, dr := range e.workers {
		wg.Add(1)
		go func(i int, dr *warmWorker) {
			defer wg.Done()
			errs[i] = dr.run(start, d)
		}(i, dr)
	}
	wg.Wait()
	p := warmPhase{rt: newReservoir(0, 0), sess: newReservoir(0, 0), elapsed: time.Since(start), misses: e.misses.n.Load() - misses0}
	total := &p.c
	total.cpu = cpu.done()
	for i, dr := range e.workers {
		if errs[i] != nil {
			return p, errs[i]
		}
		total.sessions += dr.c.sessions
		total.rts += dr.lat.seen
		total.fetches += dr.c.fetches
		total.polls += dr.c.polls
		total.tagged += dr.c.tagged
		total.badBest += dr.c.badBest
		if total.offBest == nil {
			total.offBest = dr.c.offBest
		}
		total.th.merge(dr.c.th)
		total.fetchTh.merge(dr.c.fetchTh)
		p.rt.merge(dr.lat)
		p.sess.merge(dr.sess)
		if dr.k != nil {
			dr.k.flush()
		}
	}
	return p, nil
}

func (d *warmWorker) nextName() string {
	if d.k != nil {
		d.k.begin("loadgen")
		defer d.k.end()
	}
	d.n++
	return fmt.Sprintf("w%d-%d", d.id, d.n)
}

func (d *warmWorker) run(start time.Time, window time.Duration) error {
	d.c = warmCounts{}
	d.lat.clear()
	d.sess.clear()
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		name := d.nextName()
		s0 := time.Now()
		t0 := d.begin("harmony.client.register")
		err := d.cl.Register(name, d.params)
		d.end(t0)
		if err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
		fetches := d.c.fetches
		if err := d.tune(name); err != nil {
			return err
		}
		t0 = d.begin("harmony.client.best")
		best, _, _, err := d.cl.Best(name)
		d.end(t0)
		if err != nil {
			return fmt.Errorf("best %s: %w", name, err)
		}
		if !sameBits(best, d.refBest) {
			d.c.badBest++
			if d.c.offBest == nil {
				d.c.offBest = best
			}
		}
		d.sess.add(float64(time.Since(s0)) / float64(time.Microsecond))
		d.c.sessions++
		t := time.Since(start).Seconds()
		d.c.th.note(t, window.Seconds(), 1)
		d.c.fetchTh.note(t, window.Seconds(), d.c.fetches-fetches)
	}
	return nil
}

// tune fetches until the session converges, measuring and reporting every
// tagged fetch as RunLoop would. On a warm store no fetch should carry a
// tag; one that does counts against the run's correctness check.
func (d *warmWorker) tune(name string) error {
	for polls := 0; polls < warmMaxPolls; polls++ {
		t0 := d.begin("harmony.client.fetch")
		fr, err := d.cl.Fetch(name)
		d.end(t0)
		if err != nil {
			return fmt.Errorf("fetch %s: %w", name, err)
		}
		d.c.fetches++
		switch classifyFetch([]harmony.FetchResult{fr}) {
		case fetchConverged:
			return nil
		case fetchIdle:
			// Where RunLoop would run one application iteration at the best
			// configuration, the generator yields its processor once.
			d.c.polls++
			runtime.Gosched()
			continue
		}
		d.c.tagged++
		v, ok := d.tab.value(fr.Point)
		if !ok {
			return fmt.Errorf("session %s handed out off-grid point %v", name, fr.Point)
		}
		t0 = d.begin("harmony.client.report")
		err = d.cl.Report(name, fr.Tag, d.model.Perturb(v, d.rng))
		d.end(t0)
		if err != nil {
			return fmt.Errorf("report %s: %w", name, err)
		}
	}
	return fmt.Errorf("session %s did not converge within %d fetches", name, warmMaxPolls)
}

// sameBits reports whether two points are bit-for-bit identical.
func sameBits(a, b space.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runServeWarm(cfg config) (*result, error) {
	n := 0
	newEnv := func(tr *tracer) (*warmEnv, error) {
		n++
		return newWarmEnv(cfg, tr, filepath.Join(cfg.workDir, fmt.Sprintf("warm-%d", n)))
	}
	env, setup, err := setupMedian(cfg.setups, func() (*warmEnv, error) { return newEnv(nil) }, (*warmEnv).close)
	if err != nil {
		return nil, err
	}
	defer func() { _ = env.close() }() // a second close after the traced swap is harmless
	if _, err := env.phase(cfg.warmup); err != nil {
		return nil, err
	}
	r := newResult()
	if !cfg.trace {
		w := openWindow()
		p, err := env.phase(cfg.seconds)
		rt := w.close()
		if err != nil {
			return nil, err
		}
		commonE2E(r, float64(p.c.sessions), rt.cpu.Seconds(), summarise(p.rt), setup, rt)
		warmReport(r, p, env.workers[0].refBest)
		return r, nil
	}

	base, err := env.phase(cfg.seconds / 2)
	if err != nil {
		return nil, err
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	tr := newTracer()
	if env, err = newEnv(tr); err != nil {
		return nil, err
	}
	if _, err := env.phase(cfg.warmup); err != nil {
		return nil, err
	}
	tr.reset()
	cs0 := env.cache.Stats()
	w := openWindow()
	p, err := env.phase(cfg.seconds / 2)
	rt := w.close()
	if err != nil {
		return nil, err
	}
	cs := env.cache.Stats()
	p.c.th, p.c.fetchTh, p.c.cpu = base.c.th, base.c.fetchTh, base.c.cpu // stationarity is judged on the untraced half
	warmReport(r, p, env.workers[0].refBest)
	c, elapsed := p.c, p.elapsed
	td := tr.snapshot()
	clientSide, busy := pairRequests(td)
	loadgen := selfS(td, "loadgen")
	lookupT := selfS(td, "feddb.cache.lookup")
	sampleT := selfS(td, "sample.estimate")
	self := map[string]float64{
		"harmony.client": sum(clientSide) / 1e9,
		// A core.eval span is harmony's session evaluator answering the
		// batch from the store: its time less the cache lookups it makes is
		// server work, done on the session's goroutine.
		"harmony.server": sum(busy)/1e9 + selfS(td, "core.eval") - lookupT,
		"core":           selfS(td, "core.init", "core.step"),
		// estimates run inside the cache's fills
		"feddb":   lookupT - sampleT,
		"sample":  sampleT,
		"loadgen": loadgen,
	}
	layerFracs(r, elapsed.Seconds()*warmWorkers, self)
	covered := rootTotal(td, "harmony.client.", "loadgen")
	baseRate := float64(base.c.sessions) / base.elapsed.Seconds()
	rate := float64(c.sessions) / elapsed.Seconds()
	commonLayer(r, rt, float64(c.sessions), elapsed, warmWorkers, covered, loadgen, baseRate, rate)
	serveLayer(r, td, env.rig.bytes, c.rts, clientSide, busy)
	r.quantileLine("feddb.cache.lookup_us.p50", td, "feddb.cache.lookup", 0.5)
	r.quantileLine("feddb.cache.lookup_us.p99", td, "feddb.cache.lookup", 0.99)
	r.line("measuredb.open_ms", env.openMs, "ms", "(opening the traced run's empty store)")
	hits, misses2 := cs.Hits-cs0.Hits, cs.Misses-cs0.Misses
	r.line("feddb.cache.hit_ratio", float64(hits)/math.Max(float64(hits+misses2), 1), "frac", fmt.Sprintf("(%d hits, %d misses)", hits, misses2))
	r.metrics["harmony.fetch.items_per_rt"] = 1 // single-op fetch: one configuration per round trip
	r.metrics["harmony.fetch.idle_ratio"] = float64(c.polls) / float64(c.fetches)
	r.metrics["harmony.report.rejected_ratio"] = 0 // a warm session reports nothing
	r.metrics["harmony.report.refused_ratio"] = 0
	unreached(r, "measuredb.wal_bytes_per_obs", "feddb.sync.frames_per_round", "feddb.sync.dup_ratio",
		"feddb.sync.bytes_per_frame", "feddb.snapshot.bytes", "objective.evals_per_run", "noise.perturbs_per_run")
	return r, nil
}

func warmReport(r *result, p warmPhase, refBest space.Point) {
	c, misses := p.c, p.misses
	r.line("sessions_per_s", float64(c.sessions)/p.elapsed.Seconds(), "1/s", "(per wall second: warm sessions registered and driven to Converged)")
	r.latencyLines("session", summarise(p.sess))
	r.latencyLines("rt", summarise(p.rt))
	r.line("harmony.fetch.idle_ratio", float64(c.polls)/float64(max(c.fetches, 1)), "frac", fmt.Sprintf("(%d polls of %d fetches)", c.polls, c.fetches))
	r.attempted = c.rts
	r.line("failed_frac", 0, "frac", fmt.Sprintf("(0 of %d ops; any failed op aborts the run)", c.rts))
	r.check("warm_no_tagged_fetch", c.tagged == 0, "%d tagged fetches over %d sessions", c.tagged, c.sessions)
	r.check("warm_no_db_miss", misses == 0, "%d db_miss events", misses)
	r.check("warm_best_identical", c.sessions > 0 && c.badBest == 0, "%d of %d sessions off the reference best %v (first off: %v)", c.badBest, c.sessions, refBest, c.offBest)
	r.stationarity(c.th, c.fetchTh, c.cpu)
}
