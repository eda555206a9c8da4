package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"paratune/internal/harmony"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// serve-batch: an in-process harmonyd with no store, driven over PHWIRE1 by
// 2 closed-loop connections with fetchn/reportn x16 across 128 live GS2
// sessions. A session that reports Converged is checked and retired and a
// fresh one takes its slot, so the live-session count — and with it the
// share of useful traffic — stays fixed across the window.
const (
	batchWorkers  = 2
	batchSessions = 128
	batchOps      = 16
	paretoAlpha   = 1.7
	serveRho      = 0.2
)

type batchEnv struct {
	rig     *rig
	workers []*batchWorker
}

// batchSlot is one live-session position: the session occupying it and the
// highest candidate tag the generator has been handed for it.
type batchSlot struct {
	idx    int
	name   string
	gen    int
	maxTag uint64
	seen   time.Time // when the generator last turned to this slot
}

// batchCounts is one worker's tally for one phase.
type batchCounts struct {
	useful   int // tagged measurements the server accepted
	idle     int // tag-0 answers for sessions not yet converged
	items    int // items returned by fetchn
	fetches  int
	reported int // tagged items sent in reportn frames
	rts      int // round trips, filled from the latency sample's count
	retired  int
	rejected int
	refused  int
	badBest  int
	badTag   int
	maxGap   time.Duration    // longest a live session went without a request
	th       thirds           // useful measurements by twelfth of the window
	fetchTh  thirds           // fetchn round trips by twelfth
	cpu      [2]time.Duration // process CPU in the first and last third
}

type batchWorker struct {
	rtClock
	id     int
	cl     *harmony.Client
	params []space.Parameter
	slots  []batchSlot
	tab    *gs2Table
	model  noise.Model
	rng    *rand.Rand
	items  []harmony.ReportItem
	c      batchCounts
}

func newBatchEnv(cfg config, tr *tracer) (*batchEnv, error) {
	tab, err := newGS2Table(objective.GenerateGS2(objective.GS2Config{Seed: surrogateSeed}))
	if err != nil {
		return nil, err
	}
	model, err := noise.NewIIDPareto(paretoAlpha, serveRho)
	if err != nil {
		return nil, err
	}
	opts := harmony.ServerOptions{IdleTimeout: retireAfter}
	if tr != nil {
		est, err := sample.NewMinOfK(3)
		if err != nil {
			return nil, err
		}
		opts.Estimator = &tracedEst{Estimator: est, t: tr, leaf: tr.sharedLeaf}
		opts.NewAlgorithm = tracedFactory(tr)
	}
	env := &batchEnv{rig: startRig(opts, tr, "harmony.server")}
	params := spaceParams(objective.GS2Space())
	for w := 0; w < batchWorkers; w++ {
		cl, conn, err := env.rig.client(harmony.WireBinary, cfg.seed+int64(w)+1)
		if err != nil {
			env.close()
			return nil, err
		}
		d := &batchWorker{
			rtClock: rtClock{conn: conn, lat: newReservoir(1<<16, cfg.seed+int64(w))},
			id:      w, cl: cl, params: params, tab: tab,
			model: model, rng: rand.New(rand.NewSource(cfg.seed*31 + int64(w))),
			items: make([]harmony.ReportItem, 0, batchOps),
		}
		if tr != nil {
			d.k = tr.newTrack()
			d.k.client = true
			d.model = &tracedModel{Model: model, t: tr, leaf: d.k.leaf}
		}
		env.workers = append(env.workers, d)
		for i := 0; i < batchSessions/batchWorkers; i++ {
			d.slots = append(d.slots, batchSlot{idx: i, name: slotName(w, i, 0)})
			if err := cl.Register(d.slots[i].name, params); err != nil {
				env.close()
				return nil, fmt.Errorf("register: %w", err)
			}
		}
	}
	return env, nil
}

// slotName names generation gen of slot i of worker w; names are never
// reused, so a retired session is never joined again.
func slotName(w, i, gen int) string { return fmt.Sprintf("b%d-%03d-%d", w, i, gen) }

func spaceParams(sp *space.Space) []space.Parameter {
	ps := make([]space.Parameter, sp.Dim())
	for i := range ps {
		ps[i] = sp.Param(i)
	}
	return ps
}

func (e *batchEnv) close() error {
	for _, d := range e.workers {
		_ = d.cl.Close() // memory pipe; nothing to flush
	}
	return e.rig.close()
}

// phase drives every connection for d and returns the merged tally with
// the measured wall time.
func (e *batchEnv) phase(d time.Duration) (batchCounts, *reservoir, time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(e.workers))
	start := time.Now()
	cpu := watchCPUThirds(start, d)
	for i, dr := range e.workers {
		wg.Add(1)
		go func(i int, dr *batchWorker) {
			defer wg.Done()
			errs[i] = dr.run(start, d)
		}(i, dr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := batchCounts{cpu: cpu.done()}
	lat := newReservoir(0, 0)
	for i, dr := range e.workers {
		if errs[i] != nil {
			return total, nil, 0, errs[i]
		}
		dr.c.rts = dr.lat.seen
		total.add(dr.c)
		lat.merge(dr.lat)
		if dr.k != nil {
			dr.k.flush()
		}
	}
	return total, lat, elapsed, nil
}

func (c *batchCounts) add(o batchCounts) {
	c.useful += o.useful
	c.idle += o.idle
	c.items += o.items
	c.fetches += o.fetches
	c.reported += o.reported
	c.rts += o.rts
	c.retired += o.retired
	c.rejected += o.rejected
	c.refused += o.refused
	c.badBest += o.badBest
	c.badTag += o.badTag
	c.maxGap = max(c.maxGap, o.maxGap)
	c.th.merge(o.th)
	c.fetchTh.merge(o.fetchTh)
}

func (d *batchWorker) run(start time.Time, window time.Duration) error {
	d.c = batchCounts{}
	d.lat.clear()
	deadline := start.Add(window)
	for i := 0; ; i = (i + 1) % len(d.slots) {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		sl := &d.slots[i]
		if !sl.seen.IsZero() {
			d.c.maxGap = max(d.c.maxGap, now.Sub(sl.seen))
		}
		sl.seen = now
		t0 := d.begin("harmony.client.fetchn")
		frs, err := d.cl.FetchN(sl.name, batchOps)
		d.end(t0)
		if err != nil {
			return fmt.Errorf("fetchn %s: %w", sl.name, err)
		}
		d.c.fetches++
		d.c.fetchTh.note(now.Sub(start).Seconds(), window.Seconds(), 1)
		d.c.items += len(frs)
		switch classifyFetch(frs) {
		case fetchConverged:
			if err := d.retire(sl); err != nil {
				return err
			}
			continue
		case fetchIdle:
			d.c.idle++
			continue
		}
		if err := d.measure(sl, frs); err != nil {
			return err
		}
		t0 = d.begin("harmony.client.reportn")
		res, err := d.cl.ReportN(sl.name, d.items)
		d.end(t0)
		if err != nil {
			return fmt.Errorf("reportn %s: %w", sl.name, err)
		}
		useful := usefulReports(len(d.items), res.Accepted)
		d.c.useful += useful
		d.c.reported += len(d.items)
		d.c.rejected += res.Rejected
		d.c.refused += res.Refused
		d.c.th.note(time.Since(start).Seconds(), window.Seconds(), useful)
	}
}

// measure is the load generator's share of a round trip: a table read and
// a Pareto draw per tagged candidate.
func (d *batchWorker) measure(sl *batchSlot, frs []harmony.FetchResult) error {
	if d.k != nil {
		d.k.begin("loadgen")
		defer d.k.end()
	}
	d.items = d.items[:0]
	for _, fr := range frs {
		if fr.Tag == 0 {
			continue
		}
		v, ok := d.tab.value(fr.Point)
		if !ok {
			return fmt.Errorf("session %s handed out off-grid point %v", sl.name, fr.Point)
		}
		if fr.Tag > sl.maxTag {
			sl.maxTag = fr.Tag
		}
		d.items = append(d.items, harmony.ReportItem{Tag: fr.Tag, Value: d.model.Perturb(v, d.rng)})
	}
	return nil
}

// retire checks a converged session — its best point is a GS2 grid point
// and the server issued exactly the tags the generator saw — and registers
// a fresh session in its slot.
func (d *batchWorker) retire(sl *batchSlot) error {
	t0 := d.begin("harmony.client.best")
	best, _, _, err := d.cl.Best(sl.name)
	d.end(t0)
	if err != nil {
		return fmt.Errorf("best %s: %w", sl.name, err)
	}
	if _, ok := gs2Index(best); !ok {
		d.c.badBest++
	}
	t0 = d.begin("harmony.client.stats")
	st, err := d.cl.Stats(sl.name)
	d.end(t0)
	if err != nil {
		return fmt.Errorf("stats %s: %w", sl.name, err)
	}
	if st.NextTag != sl.maxTag+1 {
		d.c.badTag++
	}
	d.c.retired++
	sl.gen++
	sl.maxTag = 0
	sl.name = slotName(d.id, sl.idx, sl.gen)
	t0 = d.begin("harmony.client.register")
	err = d.cl.Register(sl.name, d.params)
	d.end(t0)
	if err != nil {
		return fmt.Errorf("register %s: %w", sl.name, err)
	}
	return nil
}

func runServeBatch(cfg config) (*result, error) {
	env, setup, err := setupMedian(cfg.setups, func() (*batchEnv, error) { return newBatchEnv(cfg, nil) }, (*batchEnv).close)
	if err != nil {
		return nil, err
	}
	defer func() { _ = env.close() }() // a second close after the traced swap is harmless
	if _, _, _, err := env.phase(cfg.warmup); err != nil {
		return nil, err
	}
	r := newResult()
	if !cfg.trace {
		w := openWindow()
		c, lat, elapsed, err := env.phase(cfg.seconds)
		rt := w.close()
		if err != nil {
			return nil, err
		}
		ls := summarise(lat)
		commonE2E(r, float64(c.useful), rt.cpu.Seconds(), ls, setup, rt)
		batchReport(r, c, ls, elapsed)
		return r, nil
	}

	base, _, baseEl, err := env.phase(cfg.seconds / 2)
	if err != nil {
		return nil, err
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	tr := newTracer()
	tenv, err := newBatchEnv(cfg, tr)
	if err != nil {
		return nil, err
	}
	env = tenv
	if _, _, _, err := env.phase(cfg.warmup); err != nil {
		return nil, err
	}
	tr.reset()
	w := openWindow()
	c, lat, elapsed, err := env.phase(cfg.seconds / 2)
	rt := w.close()
	if err != nil {
		return nil, err
	}
	c.th, c.fetchTh, c.cpu = base.th, base.fetchTh, base.cpu // stationarity is judged on the untraced half
	batchReport(r, c, summarise(lat), elapsed)
	td := tr.snapshot()
	clientSide, busy := pairRequests(td)
	loadgen := selfS(td, "loadgen")
	sampleT := selfS(td, "sample.estimate")
	noiseT := selfS(td, "noise.perturb")
	self := map[string]float64{
		"harmony.client": sum(clientSide) / 1e9,
		// every estimate runs inside a report's server busy span
		"harmony.server": sum(busy)/1e9 - sampleT,
		// a core.eval span is the engine waiting for clients, not core work
		"core":    selfS(td, "core.init", "core.step"),
		"sample":  sampleT,
		"noise":   noiseT,
		"loadgen": loadgen,
	}
	layerFracs(r, elapsed.Seconds()*batchWorkers, self)
	covered := rootTotal(td, "harmony.client.", "loadgen")
	baseRate := float64(base.useful) / baseEl.Seconds()
	rate := float64(c.useful) / elapsed.Seconds()
	commonLayer(r, rt, float64(c.useful), elapsed, batchWorkers, covered, loadgen+noiseT, baseRate, rate)
	serveLayer(r, td, env.rig.bytes, c.rts, clientSide, busy)
	r.metrics["harmony.fetch.items_per_rt"] = float64(c.items) / float64(c.fetches)
	r.metrics["harmony.fetch.idle_ratio"] = float64(c.idle) / float64(c.fetches)
	r.metrics["harmony.report.rejected_ratio"] = float64(c.rejected) / float64(max(c.reported, 1))
	r.metrics["harmony.report.refused_ratio"] = float64(c.refused) / float64(max(c.reported, 1))
	r.line("noise.perturb_ns", meanNS(td, "noise.perturb"), "ns", fmt.Sprintf("(mean of %d draws)", td.names["noise.perturb"].count))
	unreached(r, "measuredb.wal_bytes_per_obs", "feddb.sync.frames_per_round",
		"feddb.sync.dup_ratio", "feddb.sync.bytes_per_frame", "feddb.snapshot.bytes",
		"objective.evals_per_run", "noise.perturbs_per_run")
	return r, nil
}

// batchReport prints serve-batch's end-to-end figures and records its
// correctness checks; both modes print them.
func batchReport(r *result, c batchCounts, ls latencySummary, elapsed time.Duration) {
	sec := elapsed.Seconds()
	r.line("meas_per_s", float64(c.useful)/sec, "1/s", "(tagged, accepted, first-time measurements per wall second)")
	r.line("sessions_per_s", float64(c.retired)/sec, "1/s", "(sessions registered and driven to Converged)")
	r.latencyLines("rt", ls)
	r.line("harmony.fetch.idle_ratio", float64(c.idle)/float64(max(c.fetches, 1)), "frac", fmt.Sprintf("(%d idle of %d fetches)", c.idle, c.fetches))
	r.line("slot_gap_max_ms", float64(c.maxGap)/float64(time.Millisecond), "ms", fmt.Sprintf("(longest a live session went without a request; harmony expires it after %v)", retireAfter))
	r.attempted = c.rts + c.reported
	r.failed = c.rejected + c.refused
	r.line("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "frac", fmt.Sprintf("(%d of %d ops)", r.failed, r.attempted))
	r.check("no_rejected_reports", c.rejected == 0 && c.refused == 0, "%d rejected, %d refused of %d reported", c.rejected, c.refused, c.reported)
	r.check("retired_best_in_space", c.retired > 0 && c.badBest == 0, "%d of %d retired sessions off the grid", c.badBest, c.retired)
	r.check("retired_next_tag", c.badTag == 0, "%d of %d retired sessions whose NextTag disagrees with the tags seen", c.badTag, c.retired)
	r.stationarity(c.th, c.fetchTh, c.cpu)
}
