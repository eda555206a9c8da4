// Command harmonyload is the saturation load harness for harmonyd: it drives
// M concurrent synthetic tuning sessions through real clients and reports
// registration rate, measurement throughput, and round-trip latency
// percentiles.
//
// With -addr it targets a running harmonyd over TCP; without it, it spins up
// an in-process server over a memory listener, which removes the kernel
// socket stack from the measurement and isolates the server's own dispatch
// cost — the number the sharded session table and binary wire protocol exist
// to improve.
//
// Usage:
//
//	harmonyload [-sessions 256] [-duration 5s] [-workers 8]
//	            [-wire binary|json] [-batch 16] [-addr host:port]
//	            [-rho 0.2] [-seed 1]
//
// Each worker owns one connection and round-robins over its share of the
// sessions, fetching candidates and reporting GS2 surrogate measurements
// perturbed by Pareto variability. -batch 1 uses the single-op fetch/report
// protocol; larger values use batched fetchn/reportn frames.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"net"

	"paratune/internal/chaos"
	"paratune/internal/dist"
	"paratune/internal/harmony"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// workerStats accumulates one worker's share of the run.
type workerStats struct {
	reports   int // measurements accepted (or acknowledged as duplicates)
	refused   int // measurements shed by backpressure
	rejected  int // invalid values / stale tags
	bestKnown int // tag-0 fetch answers: no candidate pending, nothing to measure
	rts       int // round trips completed
	lats      []time.Duration
	err       error
}

func main() {
	var (
		sessions = flag.Int("sessions", 256, "concurrent synthetic sessions")
		duration = flag.Duration("duration", 5*time.Second, "measurement window")
		workers  = flag.Int("workers", 8, "client connections driving load")
		wireName = flag.String("wire", "binary", "wire protocol: binary or json")
		batch    = flag.Int("batch", 16, "measurements per round trip (1 = single-op protocol)")
		addr     = flag.String("addr", "", "harmonyd address; empty runs an in-process server")
		rho      = flag.Float64("rho", 0.2, "simulated idle throughput (Pareto variability)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *sessions < 1 || *workers < 1 || *batch < 1 {
		fatal(fmt.Errorf("sessions, workers, and batch must all be at least 1"))
	}
	if *workers > *sessions {
		*workers = *sessions
	}
	wire := harmony.Wire(*wireName)

	// Dial target: a remote harmonyd, or an in-process server over pipes.
	var dialFunc func() (net.Conn, error)
	target := *addr
	if *addr == "" {
		l := chaos.NewMemListener()
		srv := harmony.NewServer(harmony.ServerOptions{})
		serveErr := make(chan error, 1)
		go func() { serveErr <- harmony.Serve(l, srv) }()
		defer func() {
			_ = l.Close()
			<-serveErr
			srv.Close()
		}()
		dialFunc = func() (net.Conn, error) { return l.Dial() }
		target = "(in-process)"
	}

	// The measured workload: GS2 surrogate times under Pareto variability —
	// the performance-variability regime the tuning server is built for.
	db := objective.GenerateGS2(objective.GS2Config{Seed: *seed})
	var model noise.Model = noise.None{}
	if *rho > 0 {
		m, err := noise.NewIIDPareto(1.7, *rho)
		if err != nil {
			fatal(err)
		}
		model = m
	}

	sp := objective.GS2Space()
	params := make([]space.Parameter, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	names := make([]string, *sessions)
	for i := range names {
		names[i] = fmt.Sprintf("load-%05d", i)
	}

	clients := make([]*harmony.Client, *workers)
	for i := range clients {
		c, err := harmony.DialWith(target, harmony.DialOptions{
			Wire:     wire,
			DialFunc: dialFunc,
			Retries:  5,
			Backoff:  50 * time.Millisecond,
			Seed:     *seed + int64(i),
		})
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// Phase 1: register every session, timed, for the sessions/sec figure.
	regStart := time.Now()
	var wg sync.WaitGroup
	regErrs := make([]error, *workers)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(names); i += *workers {
				if err := clients[w].Register(names[i], params); err != nil {
					regErrs[w] = fmt.Errorf("register %s: %w", names[i], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range regErrs {
		if err != nil {
			fatal(err)
		}
	}
	regElapsed := time.Since(regStart)

	// Phase 2: saturate for the measurement window.
	stats := make([]workerStats, *workers)
	loadStart := time.Now()
	deadline := loadStart.Add(*duration)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w] = drive(clients[w], names, w, *workers, *batch, deadline, db, model, *seed+int64(w))
		}(w)
	}
	wg.Wait()
	loadElapsed := time.Since(loadStart)

	var total workerStats
	for _, s := range stats {
		if s.err != nil {
			fatal(s.err)
		}
		total.reports += s.reports
		total.refused += s.refused
		total.rejected += s.rejected
		total.bestKnown += s.bestKnown
		total.rts += s.rts
		total.lats = append(total.lats, s.lats...)
	}
	sort.Slice(total.lats, func(i, j int) bool { return total.lats[i] < total.lats[j] })

	fmt.Printf("harmonyload: %d sessions, %d workers, wire=%s batch=%d, target %s\n",
		*sessions, *workers, wire, *batch, target)
	fmt.Printf("registration: %d sessions in %s (%.0f sessions/s)\n",
		*sessions, regElapsed.Round(time.Millisecond), float64(*sessions)/regElapsed.Seconds())
	fmt.Printf("throughput:   %d measurements in %s (%.0f reports/s, %.0f round-trips/s)\n",
		total.reports, loadElapsed.Round(time.Millisecond),
		float64(total.reports)/loadElapsed.Seconds(), float64(total.rts)/loadElapsed.Seconds())
	if total.bestKnown > 0 {
		fmt.Printf("best-known:   %d tag-0 answers (no candidate pending; not reported)\n", total.bestKnown)
	}
	if total.refused > 0 || total.rejected > 0 {
		fmt.Printf("shed:         %d refused (backpressure), %d rejected\n", total.refused, total.rejected)
	}
	if len(total.lats) > 0 {
		fmt.Printf("latency:      p50 %s  p99 %s  max %s (%d round trips)\n",
			percentile(total.lats, 0.50), percentile(total.lats, 0.99),
			total.lats[len(total.lats)-1], len(total.lats))
	}
}

// drive is one worker's load loop: round-robin over its session share,
// fetch/report (or fetchn/reportn) until the deadline, timing every round
// trip. Only tagged candidates are measured and reported; a tag-0 answer
// (the best-known configuration, served while no candidate is pending) is
// counted on its own and never sent back as a measurement.
func drive(cl *harmony.Client, names []string, w, stride, batch int, deadline time.Time,
	db *objective.DB, model noise.Model, seed int64) workerStats {
	var st workerStats
	rng := dist.NewRNG(seed)
	items := make([]harmony.ReportItem, 0, batch)
	for si := w; time.Now().Before(deadline); si += stride {
		name := names[si%len(names)]
		if batch == 1 {
			t0 := time.Now()
			fr, err := cl.Fetch(name)
			st.lats = append(st.lats, time.Since(t0))
			if err != nil {
				st.err = fmt.Errorf("fetch %s: %w", name, err)
				return st
			}
			st.rts++
			if fr.Tag == 0 {
				st.bestKnown++
				continue
			}
			y := model.Perturb(db.Eval(fr.Point), rng)
			t0 = time.Now()
			err = cl.Report(name, fr.Tag, y)
			st.lats = append(st.lats, time.Since(t0))
			st.rts++
			switch {
			case err == nil:
				st.reports++
			case harmony.IsBackpressure(err):
				st.refused++
			default:
				st.rejected++
			}
			continue
		}
		t0 := time.Now()
		frs, err := cl.FetchN(name, batch)
		st.lats = append(st.lats, time.Since(t0))
		if err != nil {
			st.err = fmt.Errorf("fetchn %s: %w", name, err)
			return st
		}
		st.rts++
		items = items[:0]
		for _, fr := range frs {
			if fr.Tag == 0 {
				st.bestKnown++
				continue
			}
			items = append(items, harmony.ReportItem{
				Tag:   fr.Tag,
				Value: model.Perturb(db.Eval(fr.Point), rng),
			})
		}
		if len(items) == 0 {
			continue
		}
		t0 = time.Now()
		res, err := cl.ReportN(name, items)
		st.lats = append(st.lats, time.Since(t0))
		if err != nil {
			st.err = fmt.Errorf("reportn %s: %w", name, err)
			return st
		}
		st.rts++
		st.reports += res.Accepted
		st.refused += res.Refused
		st.rejected += res.Rejected
	}
	return st
}

// percentile returns the p-quantile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx].Round(time.Microsecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harmonyload:", err)
	os.Exit(1)
}
