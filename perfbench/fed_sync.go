package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"paratune/internal/feddb"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// fed-sync: the write path. Two disk-backed stores are pre-populated in
// set-up to a fixed size over several origins. The window is a sequence of
// episodes, each restarting from copies of that fixed state: a fixed number
// of rounds, each of fedObsPerRound local Observes on both peers and one
// feddb.Sync from peer A to peer B through harmony.Serve over a memory pipe,
// then fedCatchups cold-peer catch-ups (snapshot shipping) from a fresh
// empty store. Every episode does identical work, so the figures do not
// drift with store growth as a time-boxed run over one growing store does.
const (
	fedOrigins      = 4
	fedObsPerOrigin = 20000
	fedObsPerRound  = 32 // per peer
	fedRounds       = 1000
	fedCatchups     = 1
)

type fedEnv struct {
	seed   int64
	dir    string // holds the pristine stores a/ and b/ and the episodes
	points []space.Point
	model  noise.Model
	rng    *rand.Rand
	sig    string
	ep     int
}

// fedCounts is the tally of one phase.
type fedCounts struct {
	episodes  int
	rounds    int
	obs       int           // observations recorded locally and replicated
	roundTime time.Duration // time inside the round loops
	roundCPU  time.Duration // process CPU time inside the round loops
	rates     []float64     // synced observations per CPU second, per episode
	lat       *reservoir    // sync round wall time, µs
	catchups  []float64     // ms
	snapBytes int
	noSnap    int
	pulled    int
	pushed    int
	dups      int
	walBytes  int64
	// roundBytes is what the rounds' client connections moved, traced only
	roundBytes int64
	openMs     []float64
	badDigest  int
	badExport  int
}

// obsValue is the synthetic measurement of grid point i: a fixed base time
// perturbed by the serve workloads' Pareto variability.
func (e *fedEnv) obsValue(i int) float64 {
	return e.model.Perturb(1+float64(i%97)/10, e.rng)
}

func newFedEnv(cfg config, dir string) (*fedEnv, error) {
	model, err := noise.NewIIDPareto(paretoAlpha, serveRho)
	if err != nil {
		return nil, err
	}
	sp := objective.GS2Space()
	e := &fedEnv{seed: cfg.seed, dir: dir, model: model, rng: rand.New(rand.NewSource(cfg.seed)), sig: sp.String()}
	if err := sp.Enumerate(func(p space.Point) { e.points = append(e.points, p.Clone()) }); err != nil {
		return nil, err
	}
	var peers []*measuredb.Store
	for _, name := range []string{"a", "b"} {
		s, err := measuredb.Open(filepath.Join(dir, name), measuredb.Options{Seed: cfg.seed, Origin: "peer-" + name, Space: e.sig})
		if err != nil {
			return nil, err
		}
		peers = append(peers, s)
	}
	for o := 0; o < fedOrigins; o++ {
		src := measuredb.NewMemory(measuredb.Options{Seed: cfg.seed, Origin: fmt.Sprintf("origin-%d", o), Space: e.sig})
		for j := 0; j < fedObsPerOrigin; j++ {
			i := e.rng.Intn(len(e.points))
			src.Observe(e.points[i], e.obsValue(i))
		}
		for _, s := range peers {
			if _, err := s.Merge(src); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range peers {
		if err := s.Compact(); err != nil {
			return nil, err
		}
		if err := s.Close(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func walSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, "wal.db"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// export is a store's raw content in canonical order, the byte form two
// converged stores must agree on.
func export(s *measuredb.Store) []byte {
	var b []byte
	s.ForEachRaw(func(p space.Point, obs []float64) {
		b = binary.AppendUvarint(b, uint64(len(p)))
		for _, x := range p {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		b = binary.AppendUvarint(b, uint64(len(obs)))
		for _, x := range obs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	})
	return b
}

func sameDigest(a, b []measuredb.OriginDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// phase runs whole episodes until d has passed.
func (e *fedEnv) phase(d time.Duration, tr *tracer, k *track) (fedCounts, error) {
	c := fedCounts{lat: newReservoir(1<<16, e.seed)}
	start := time.Now()
	for c.episodes == 0 || time.Since(start) < d {
		if err := e.episode(&c, tr, k); err != nil {
			return c, err
		}
	}
	if k != nil {
		k.flush()
	}
	return c, nil
}

func (e *fedEnv) episode(c *fedCounts, tr *tracer, k *track) (err error) {
	e.ep++
	wd := filepath.Join(e.dir, fmt.Sprintf("ep-%d", e.ep))
	defer func() {
		if rerr := os.RemoveAll(wd); err == nil {
			err = rerr
		}
	}()
	var stores []*measuredb.Store
	var rigs []*rig
	defer func() {
		for _, r := range rigs {
			if cerr := r.close(); err == nil {
				err = cerr
			}
		}
		for _, s := range stores {
			if cerr := s.Close(); err == nil {
				err = cerr
			}
		}
	}()
	for _, name := range []string{"a", "b"} {
		if err := copyDir(filepath.Join(e.dir, name), filepath.Join(wd, name)); err != nil {
			return err
		}
		t0 := time.Now()
		s, err := measuredb.Open(filepath.Join(wd, name), measuredb.Options{})
		if err != nil {
			return err
		}
		c.openMs = append(c.openMs, float64(time.Since(t0))/1e6)
		stores = append(stores, s)
		rigs = append(rigs, startRig(harmony.ServerOptions{DB: s}, tr, "feddb.serve."+name))
	}
	a, b := stores[0], stores[1]
	walBefore := walSize(filepath.Join(wd, "a")) + walSize(filepath.Join(wd, "b"))

	idx := make([]int, 2*fedObsPerRound)
	vals := make([]float64, 2*fedObsPerRound)
	t0, cpu0 := time.Now(), processCPU()
	for r := 0; r < fedRounds; r++ {
		if k != nil {
			k.begin("loadgen.round")
			k.begin("loadgen")
		}
		for j := range idx {
			idx[j] = e.rng.Intn(len(e.points))
			vals[j] = e.obsValue(idx[j])
		}
		if k != nil {
			k.end()
		}
		for j := range idx {
			s := a
			if j >= fedObsPerRound {
				s = b
			}
			o0 := time.Now()
			s.Observe(e.points[idx[j]], vals[j])
			if k != nil {
				k.leaf("measuredb.observe", int64(time.Since(o0)))
			}
		}
		if err := e.syncRound(c, a, b, rigs[1], k); err != nil {
			return err
		}
		if k != nil {
			k.end()
		}
	}
	el, cpu := time.Since(t0), processCPU()-cpu0
	c.roundTime += el
	c.roundCPU += cpu
	c.obs += 2 * fedObsPerRound * fedRounds
	// Per CPU second, not per wall second: see cpuThirds.
	c.rates = append(c.rates, float64(2*fedObsPerRound*fedRounds)/math.Max(cpu.Seconds(), 1e-9))
	c.walBytes += walSize(filepath.Join(wd, "a")) + walSize(filepath.Join(wd, "b")) - walBefore
	if n := rigs[1].bytes; n != nil {
		c.roundBytes += n.in.Load() + n.out.Load()
	}
	c.episodes++

	for j := 0; j < fedCatchups; j++ {
		if err := e.catchUp(c, a, rigs[0], filepath.Join(wd, fmt.Sprintf("cold-%d", j)), j); err != nil {
			return err
		}
	}
	return nil
}

// syncRound is one anti-entropy round from a to b, timed end to end, then
// the convergence check on both digests.
func (e *fedEnv) syncRound(c *fedCounts, a, b *measuredb.Store, rb *rig, k *track) error {
	if k != nil {
		k.begin("feddb.sync")
	}
	t0 := time.Now()
	conn, err := rb.dial()
	if err != nil {
		return err
	}
	st, err := feddb.Sync(conn, a, "peer-b", feddb.Options{})
	_ = conn.Close() // memory pipe; the round's outcome is in err
	c.lat.add(float64(time.Since(t0)) / float64(time.Microsecond))
	if k != nil {
		k.end()
	}
	if err != nil {
		return fmt.Errorf("sync round %d: %w", c.rounds, err)
	}
	c.rounds++
	c.pulled += st.Pulled
	c.pushed += st.Pushed
	c.dups += st.Duplicates
	if k != nil {
		k.begin("measuredb.digest")
	}
	da := a.Digest()
	if k != nil {
		k.end()
		k.begin("measuredb.digest")
	}
	db := b.Digest()
	if k != nil {
		k.end()
	}
	if !sameDigest(da, db) {
		c.badDigest++
	}
	return nil
}

// catchUp brings a fresh empty store level with src in one sync round and
// checks the copy byte for byte.
func (e *fedEnv) catchUp(c *fedCounts, src *measuredb.Store, ra *rig, dir string, j int) error {
	cold, err := measuredb.Open(dir, measuredb.Options{Seed: e.seed, Origin: fmt.Sprintf("cold-%d", j), Space: e.sig})
	if err != nil {
		return err
	}
	conn, err := ra.dial()
	if err != nil {
		_ = cold.Close() // the dial error is the one to report
		return err
	}
	t0 := time.Now()
	st, err := feddb.Sync(conn, cold, "peer-a", feddb.Options{})
	el := time.Since(t0)
	_ = conn.Close() // memory pipe; the round's outcome is in err
	if err != nil {
		_ = cold.Close() // the sync error is the one to report
		return fmt.Errorf("catch-up: %w", err)
	}
	c.catchups = append(c.catchups, float64(el)/1e6)
	c.snapBytes += st.SnapshotBytes
	if !st.Snapshot {
		c.noSnap++
	}
	if !bytes.Equal(export(cold), export(src)) {
		c.badExport++
	}
	return cold.Close()
}

// seriesDrift is the relative disagreement between the mean of the first
// and the last third of a series (at least one element each).
func seriesDrift(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 1
	}
	k := max(n/3, 1)
	return relDiff(sum(xs[:k])/float64(k), sum(xs[n-k:])/float64(k))
}

func runFedSync(cfg config) (*result, error) {
	n := 0
	env, setup, err := setupMedian(cfg.setups, func() (*fedEnv, error) {
		n++
		return newFedEnv(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("fed-%d", n)))
	}, func(e *fedEnv) error { return os.RemoveAll(e.dir) })
	if err != nil {
		return nil, err
	}
	if _, err := env.phase(cfg.warmup, nil, nil); err != nil {
		return nil, err
	}
	r := newResult()
	if !cfg.trace {
		w := openWindow()
		c, err := env.phase(cfg.seconds, nil, nil)
		rt := w.close()
		if err != nil {
			return nil, err
		}
		ls := summarise(c.lat)
		commonE2E(r, float64(c.obs), c.roundCPU.Seconds(), ls, setup, rt)
		fedReport(r, c, ls)
		return r, nil
	}

	base, err := env.phase(cfg.seconds/2, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	k := tr.newTrack()
	w := openWindow()
	c, err := env.phase(cfg.seconds/2, tr, k)
	rt := w.close()
	if err != nil {
		return nil, err
	}
	c.rates = base.rates // stationarity is judged on the untraced half
	fedReport(r, c, summarise(c.lat))
	td := tr.snapshot()
	loadgen := selfS(td, "loadgen", "loadgen.round")
	self := map[string]float64{
		"measuredb": selfS(td, "measuredb.observe", "measuredb.digest"),
		"feddb":     selfS(td, "feddb.sync"),
		"loadgen":   loadgen,
	}
	layerFracs(r, c.roundTime.Seconds(), self)
	covered := rootTotal(td, "loadgen.round")
	rate := float64(c.obs) / c.roundTime.Seconds()
	commonLayer(r, rt, float64(c.obs), c.roundTime, 1, covered, loadgen, float64(base.obs)/base.roundTime.Seconds(), rate)
	r.quantileLine("measuredb.observe_us.p50", td, "measuredb.observe", 0.5)
	r.quantileLine("measuredb.observe_us.p99", td, "measuredb.observe", 0.99)
	r.line("measuredb.digest_us", meanNS(td, "measuredb.digest")/1e3, "us", "(mean Digest call)")
	r.line("measuredb.open_ms", median(c.openMs), "ms", fmt.Sprintf("(median of %d opens of the pre-populated store)", len(c.openMs)))
	frames := float64(td.names["feddb.serve.b"].count)
	r.metrics["measuredb.wal_bytes_per_obs"] = float64(c.walBytes) / float64(2*c.obs)
	r.metrics["feddb.sync.frames_per_round"] = frames / float64(c.rounds)
	r.metrics["feddb.sync.dup_ratio"] = float64(c.dups) / math.Max(float64(c.pulled+c.pushed+c.dups), 1)
	r.metrics["feddb.sync.bytes_per_frame"] = float64(c.roundBytes) / frames
	r.metrics["feddb.snapshot.bytes"] = float64(c.snapBytes) / float64(len(c.catchups))
	unreached(r, "harmony.conn.bytes_per_rt", "harmony.fetch.items_per_rt", "harmony.fetch.idle_ratio",
		"harmony.report.rejected_ratio", "harmony.report.refused_ratio", "core.steps_per_session",
		"core.points_per_step", "sample.estimates_per_step",
		"objective.evals_per_run", "noise.perturbs_per_run")
	return r, nil
}

func fedReport(r *result, c fedCounts, ls latencySummary) {
	r.line("sync_obs_per_s", float64(c.obs)/c.roundTime.Seconds(), "1/s",
		fmt.Sprintf("(per wall second of round time: %d observations over %d rounds in %d episodes)", c.obs, c.rounds, c.episodes))
	r.latencyLines("sync_round", ls)
	cu := append([]float64(nil), c.catchups...) // median sorts in place
	r.line("catchup_ms", median(cu), "ms", fmt.Sprintf("(median of %d cold-peer catch-ups)", len(cu)))
	r.attempted = c.rounds + len(c.catchups)
	r.line("failed_frac", 0, "frac", fmt.Sprintf("(0 of %d rounds and catch-ups; a failed one aborts the run)", r.attempted))
	r.check("fed_digests_equal", c.rounds > 0 && c.badDigest == 0, "%d of %d rounds left the peers' digests apart", c.badDigest, c.rounds)
	r.check("fed_catchup_export_identical", len(c.catchups) > 0 && c.badExport == 0 && c.noSnap == 0,
		"%d of %d catch-ups differ from their source, %d shipped no snapshot", c.badExport, len(c.catchups), c.noSnap)
	d := seriesDrift(c.rates)
	r.check("stationary", d <= driftTol, "first/last third episode rates per CPU second drift %.3f over %d episodes (limit %.2f)", d, len(c.rates), driftTol)
}
