// Package harmony provides an Active-Harmony-style on-line tuning server:
// the infrastructure role of [18] in the paper. Applications register their
// tunable parameters, then repeatedly fetch a candidate configuration, run
// one iteration, and report the measured time. The server drives a PRO
// optimiser (or any core.Algorithm) behind the scenes, aggregates repeated
// measurements with a configurable estimator (min-of-K by default), and
// serves the best-known configuration once tuning has converged.
//
// The measurement pipeline is fault-tolerant: reported values are validated
// (NaN/±Inf/negative reports are rejected before they can poison the
// estimator), every candidate batch carries a progress deadline with bounded
// reissue so a vanished client cannot wedge a session, reports are
// deduplicated by client-supplied id so reconnect retries are idempotent,
// idle sessions expire, and whole sessions can be checkpointed and restored
// across server restarts without losing the optimiser's simplex.
//
// Two transports are provided: direct in-process calls on *Server, and a
// newline-delimited JSON protocol over TCP (Serve/Client).
package harmony

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/fault"
	"paratune/internal/measuredb"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// AlgorithmFactory builds the optimiser for a new session.
type AlgorithmFactory func(s *space.Space) (core.Algorithm, error)

// ErrInvalidValue marks a report whose value cannot be a measurement: NaN,
// ±Inf, or negative. Wire responses carry it as code "invalid_value".
var ErrInvalidValue = errors.New("harmony: invalid measurement value (must be finite and non-negative)")

// ErrUnknownSession marks a request naming a session the server does not
// hold — never registered, expired, or lost to a restart whose checkpoint
// predates the registration. Wire responses carry it as code
// "unknown_session"; clients treat it as permanent and re-register instead
// of redialling.
var ErrUnknownSession = errors.New("harmony: unknown session")

// maxRememberedReports bounds the per-session idempotency memory of
// client-supplied report ids.
const maxRememberedReports = 4096

// maxTrackedClients bounds the per-session memory of client frame-sequence
// tracking; past it the least recently attached client is forgotten (its
// next resume starts a fresh baseline).
const maxTrackedClients = 1024

// ServerOptions configures session behaviour.
type ServerOptions struct {
	// Estimator reduces repeated measurements per candidate; min-of-3 when
	// nil.
	Estimator sample.Estimator
	// NewAlgorithm builds the per-session optimiser; PRO with defaults when
	// nil.
	NewAlgorithm AlgorithmFactory
	// MeasurementTimeout is the per-batch progress deadline: when no new
	// measurement arrives within one window, outstanding candidates are
	// re-issued (their issue counts reset so Fetch hands them out afresh);
	// after MaxReissues consecutive stale windows the batch force-completes,
	// scoring unmeasured candidates at the worst value seen so far, so a lost
	// client can never wedge the session. 0 picks the 30s default; negative
	// disables the deadline.
	MeasurementTimeout time.Duration
	// MaxReissues is the number of consecutive stale windows tolerated before
	// a batch force-completes; default 3.
	MaxReissues int
	// IdleTimeout expires sessions that see no Fetch/Report activity for the
	// given duration; expired sessions are stopped and removed. 0 disables.
	IdleTimeout time.Duration
	// Clock supplies wall time for session bookkeeping (lastUsed stamps and
	// idle-expiry). nil uses the system clock; tests inject a FakeClock so
	// expiry runs without real sleeps.
	Clock Clock
	// Recorder receives session lifecycle and optimiser iteration events
	// (registered/restored, batch proposed/complete/degraded, converged,
	// stopped, expired); nil records nothing. Payloads carry session names
	// and counters only — never wall-clock time.
	Recorder event.Recorder
	// DB, when non-nil, is the measurement database: every accepted candidate
	// report is recorded into it, and batch candidates whose estimate is
	// already resolved (>= Estimator.K() stored observations) are answered
	// from it by a measuredb.Memo without ever being issued to a client —
	// the cross-restart warm start. The store binds to one parameter-space
	// signature, so every session sharing the server must share the space.
	DB *measuredb.Store
	// Cache, when non-nil, answers warm-start lookups instead of the raw DB
	// path: the read-through estimate cache (feddb.Cache) memoises per-config
	// estimates and is invalidated by every store write, local or federated.
	// Requires DB to be set as well.
	Cache EstimateCache
	// MaxPendingReports bounds each session's pending measurement queue: the
	// surplus observations buffered beyond what the current candidate batch
	// still needs. Past the bound further surplus reports are refused with
	// ErrBackpressure (wire code "backpressure") until the optimiser consumes
	// the batch; measurements the batch still needs are never refused. 0
	// picks the 4096 default; negative disables the bound.
	MaxPendingReports int
}

func (o *ServerOptions) normalise() {
	if o.Estimator == nil {
		est, _ := sample.NewMinOfK(3) //paralint:allow errdiscipline K=3 is statically valid
		o.Estimator = est
	}
	if o.NewAlgorithm == nil {
		o.NewAlgorithm = func(s *space.Space) (core.Algorithm, error) {
			return core.NewPRO(core.Options{Space: s})
		}
	}
	if o.MeasurementTimeout == 0 {
		o.MeasurementTimeout = 30 * time.Second
	}
	if o.MaxReissues <= 0 {
		o.MaxReissues = 3
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
	if o.MaxPendingReports == 0 {
		o.MaxPendingReports = defaultMaxPendingReports
	}
}

// Server coordinates tuning sessions. The session table is sharded (see
// shard.go): there is no server-global lock, so registration, lookup, and
// dispatch for different sessions never contend.
type Server struct {
	opts   ServerOptions
	rec    event.Recorder // never nil (OrNop); safe for concurrent use
	shards []sessionShard // fixed at construction; shard() hashes into it
}

// NewServer creates an empty server.
func NewServer(opts ServerOptions) *Server {
	return newServerWithShards(opts, sessionShards)
}

// newServerWithShards sizes the session table explicitly. The
// parallel-session benchmark uses width 1 to reconstruct the pre-sharding
// single-mutex server as its baseline.
func newServerWithShards(opts ServerOptions, n int) *Server {
	opts.normalise()
	if n < 1 {
		n = 1
	}
	srv := &Server{
		opts:   opts,
		rec:    event.OrNop(opts.Recorder),
		shards: make([]sessionShard, n),
	}
	for i := range srv.shards {
		srv.shards[i].sessions = make(map[string]*session)
	}
	return srv
}

// candidate is one configuration awaiting measurements.
type candidate struct {
	point  space.Point
	tag    uint64
	obs    []float64
	need   int
	issued int
}

// session is one application's tuning state. Everything above the mutex is
// immutable after newSession (the algorithm itself is mutated only by the
// run goroutine); everything below it is guarded — the lockdiscipline
// analyzer enforces that split.
type session struct {
	name     string
	sp       *space.Space
	est      sample.Estimator
	alg      core.Algorithm
	opts     ServerOptions
	db       *measuredb.Store // nil when no measurement database attached
	rec      event.Recorder   // never nil (OrNop); safe for concurrent use
	restored bool             // skip Init: the algorithm state came from a checkpoint
	done     chan struct{}    // closed by Stop
	finished chan struct{}    // closed when the run goroutine exits
	snapCh   chan chan snapResult

	mu        sync.Mutex //paralint:lockrank 30
	batch     map[uint64]*candidate
	order     []uint64 // batch tags in submission order
	resultCh  chan []float64
	batchObs  int // measurements accepted for the current batch
	rrNext    int // round-robin cursor for batched fetchN dispatch
	surplus   int // surplus observations buffered for the current batch
	nextTag   uint64
	converged bool
	best      space.Point
	bestVal   float64
	worstObs  float64 // largest valid measurement seen; degradation stand-in
	haveWorst bool
	runErr    error
	stopped   bool
	lastUsed  time.Time
	seenRIDs  map[string]struct{} // idempotency memory for client report ids
	ridOrder  []string
	clients   map[string]*clientTrack // per-client wire frame-sequence tracking
	clientLRU []string                // eviction order for the clients map
}

// clientTrack is one client's wire-level frame bookkeeping within a session:
// the highest frame sequence dispatched, how many duplicate or stale frames
// were discarded, and how many resume handshakes the client has performed.
type clientTrack struct {
	lastSeq uint64
	dups    uint64
	dropped uint64
	resumes int
}

type snapResult struct {
	data []byte
	err  error
}

func (srv *Server) newSession(name string, sp *space.Space, alg core.Algorithm, restored bool) *session {
	s := &session{
		name:     name,
		sp:       sp,
		est:      srv.opts.Estimator,
		alg:      alg,
		opts:     srv.opts,
		db:       srv.opts.DB,
		rec:      event.OrNop(srv.opts.Recorder),
		batch:    make(map[uint64]*candidate),
		nextTag:  1,
		best:     sp.Center(),
		lastUsed: srv.opts.Clock.Now(),
		seenRIDs: make(map[string]struct{}),
		clients:  make(map[string]*clientTrack),
		restored: restored,
		done:     make(chan struct{}),
		finished: make(chan struct{}),
		snapCh:   make(chan chan snapResult),
	}
	return s
}

// Register creates (or returns) the named session over the given parameters
// and starts its optimiser. Re-registering with the same name joins the
// existing session; its space must match. The registered event is emitted
// only after the shard lock is released (shardMutateErr owns that contract).
func (srv *Server) Register(name string, params []space.Parameter) error {
	if name == "" {
		return errors.New("harmony: session name required")
	}
	return srv.shardMutateErr(name, func(sh *sessionShard) ([]event.Event, error) {
		if s, ok := sh.sessions[name]; ok {
			// Joining: verify the space matches.
			//paralint:allow boundedres space construction is sized by the request's parameter list, not accumulated state
			joined, err := space.New(params...)
			if err != nil {
				return nil, err
			}
			if joined.String() != s.sp.String() {
				return nil, fmt.Errorf("harmony: session %q already registered with different parameters", name)
			}
			return nil, nil
		}
		//paralint:allow boundedres space construction is sized by the request's parameter list, not accumulated state
		sp, err := space.New(params...)
		if err != nil {
			return nil, err
		}
		if srv.opts.DB != nil {
			if err := srv.opts.DB.BindSpace(sp.String()); err != nil {
				return nil, err
			}
		}
		alg, err := srv.opts.NewAlgorithm(sp)
		if err != nil {
			return nil, err
		}
		s := srv.newSession(name, sp, alg, false)
		//paralint:allow boundedres the session registry is the product; sessions are operator workload, expired via IdleTimeout
		sh.sessions[name] = s
		go s.run()
		if srv.opts.IdleTimeout > 0 {
			go srv.expire(s)
		}
		return []event.Event{event.Session{Session: name, Phase: "registered", Detail: s.alg.String()}}, nil
	})
}

// expire stops and removes s once it has been idle past IdleTimeout. The
// check runs on the server's Clock, so a FakeClock drives expiry in tests.
func (srv *Server) expire(s *session) {
	clock := srv.opts.Clock
	period := srv.opts.IdleTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	for {
		select {
		case <-s.done:
			return
		case <-clock.After(period):
			s.mu.Lock()
			idle := clock.Now().Sub(s.lastUsed)
			s.mu.Unlock()
			if idle >= srv.opts.IdleTimeout {
				srv.shardMutate(s.name, func(sh *sessionShard) []event.Event {
					if sh.sessions[s.name] != s {
						// Already expired and re-registered; the replacement
						// owns the table slot.
						return nil
					}
					delete(sh.sessions, s.name)
					return []event.Event{event.Session{Session: s.name, Phase: "expired"}}
				})
				s.stop()
				return
			}
		}
	}
}

// run drives the optimiser through the shared engine until convergence or
// shutdown. A closed done channel simply ends the budget predicate: the old
// loop's synthetic "session stopped" error was discarded when s.stopped was
// set, so the observable behaviour is identical.
func (s *session) run() {
	defer close(s.finished)
	var ev core.Evaluator = &sessionEvaluator{s: s}
	if s.db != nil {
		// The warm start: candidates the store has already measured to K
		// observations are answered from it (db_hit) and never reach a
		// client; with a fully warm store a batch costs no round trips.
		memo := measuredb.NewMemo(ev, s.db, s.est, s.rec, nil)
		memo.Session, memo.Cache = s.name, s.opts.Cache
		ev = memo
	}
	eng := &core.Engine{
		Alg:      s.alg,
		Ev:       ev,
		Rec:      s.rec,
		Session:  s.name,
		SkipInit: s.restored,
		Continue: func(int) bool {
			select {
			case <-s.done:
				return false
			default:
				return true
			}
		},
	}
	stats, err := eng.Run()
	s.mu.Lock()
	if err != nil && !s.stopped {
		s.runErr = err
	}
	if best, val := s.alg.Best(); best != nil {
		s.best, s.bestVal = best, val
	}
	s.converged = true
	stopped := s.stopped
	s.mu.Unlock()
	if stats.Converged {
		s.rec.Record(event.Session{Session: s.name, Phase: "converged"})
	} else if stopped {
		s.rec.Record(event.Session{Session: s.name, Phase: "stopped"})
	}
}

// takeSnapshot serialises the algorithm state; only safe from the run
// goroutine, or after the run goroutine has exited.
func (s *session) takeSnapshot() snapResult {
	snapper, ok := s.alg.(core.Snapshotter)
	if !ok {
		return snapResult{err: fmt.Errorf("harmony: algorithm %v does not support snapshots", s.alg)}
	}
	data, err := snapper.Snapshot()
	return snapResult{data: data, err: err}
}

// EstimateCache is the read-through estimate cache consulted by the
// warm-start path (implemented by feddb.Cache); see measuredb.EstimateCache.
type EstimateCache = measuredb.EstimateCache

// sessionEvaluator hands the optimiser's batches to the fetch/report
// machinery and blocks until every candidate has enough measurements, the
// batch deadline degrades it, or the session stops. With a measurement
// database attached, run wraps it in a measuredb.Memo, so only candidates
// the store cannot answer reach it.
type sessionEvaluator struct {
	s *session
}

// Eval issues points as fetchable candidates and blocks until clients
// measure them (or the batch deadline degrades it).
func (e *sessionEvaluator) Eval(points []space.Point) ([]float64, error) {
	s := e.s
	ch := make(chan []float64, 1)
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, errors.New("harmony: session stopped")
	}
	s.order = s.order[:0]
	for _, p := range points {
		tag := s.nextTag
		s.nextTag++
		s.batch[tag] = &candidate{point: p.Clone(), tag: tag, need: s.est.K()}
		s.order = append(s.order, tag)
	}
	s.resultCh = ch
	s.batchObs = 0
	s.surplus = 0
	s.rrNext = 0
	// Keep the session's public best in sync with the optimiser.
	if best, val := s.alg.Best(); best != nil {
		s.best, s.bestVal = best, val
	}
	s.mu.Unlock()
	s.rec.Record(event.Session{
		Session: s.name, Phase: "batch_proposed",
		Detail: fmt.Sprintf("%d candidates", len(points)),
	})

	timeout := s.opts.MeasurementTimeout
	lastProgress, stale := 0, 0
	for {
		var timer *time.Timer
		var timerC <-chan time.Time
		if timeout > 0 {
			timer = time.NewTimer(timeout)
			timerC = timer.C
		}
		stopTimer := func() {
			if timer != nil {
				timer.Stop()
			}
		}
		select {
		case vals := <-ch:
			stopTimer()
			s.rec.Record(event.Session{Session: s.name, Phase: "batch_complete"})
			return vals, nil
		case <-s.done:
			stopTimer()
			return nil, errors.New("harmony: session stopped")
		case req := <-s.snapCh:
			// Serve checkpoint requests while blocked: the run goroutine is
			// the only mutator of the algorithm, so snapshotting here is
			// race-free.
			req <- s.takeSnapshot()
			stopTimer()
		case <-timerC:
			s.mu.Lock()
			if s.resultCh == nil {
				// A report completed the batch concurrently; the values are
				// already waiting in ch.
				s.mu.Unlock()
				continue
			}
			if s.batchObs > lastProgress {
				// Clients are still reporting; extend the deadline.
				lastProgress, stale = s.batchObs, 0
				s.mu.Unlock()
				continue
			}
			stale++
			if stale <= s.opts.MaxReissues {
				// Reissue: reset issue counts so Fetch hands the starved
				// candidates out again (a replacement client picks them up).
				for _, tag := range s.order {
					if c, ok := s.batch[tag]; ok {
						c.issued = 0
					}
				}
				s.mu.Unlock()
				continue
			}
			// Deadline exhausted: force-complete the batch, scoring
			// permanently lost candidates at the worst known value so rank
			// ordering proceeds instead of blocking (GSS tolerates a
			// pessimistic stand-in).
			vals := s.forceCompleteLocked()
			s.mu.Unlock()
			s.rec.Record(event.Session{Session: s.name, Phase: "batch_degraded"})
			return vals, nil
		}
	}
}

// forceCompleteLocked reduces the current batch with whatever measurements
// arrived, substituting the worst known value for candidates with none.
// Caller holds s.mu and has checked s.resultCh != nil.
func (s *session) forceCompleteLocked() []float64 {
	vals := make([]float64, len(s.order))
	stand := s.worstObs
	if !s.haveWorst {
		// No valid measurement has ever arrived; any consistent stand-in
		// keeps the optimiser terminating rather than wedged.
		stand = 1
	}
	for i, t := range s.order {
		if c, ok := s.batch[t]; ok && len(c.obs) > 0 {
			vals[i] = s.est.Estimate(c.obs)
		} else {
			vals[i] = stand
		}
		delete(s.batch, t)
	}
	s.resultCh = nil
	s.surplus = 0
	return vals
}

// FetchResult is a unit of work for a client.
type FetchResult struct {
	// Point is the configuration to run next.
	Point space.Point
	// Tag identifies the candidate for Report; 0 means the point is the
	// best-known configuration and needs no measurement report.
	Tag uint64
	// Converged reports whether tuning has finished.
	Converged bool
}

// Fetch returns the next configuration for a client of the named session.
// While a candidate batch is outstanding it hands out the least-measured
// candidate (re-issuing candidates whose earlier clients never reported, so
// a lost client cannot stall tuning); otherwise it returns the best-known
// configuration with Tag 0.
func (srv *Server) Fetch(name string) (FetchResult, error) {
	s, err := srv.session(name)
	if err != nil {
		return FetchResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastUsed = srv.opts.Clock.Now()
	if s.runErr != nil {
		return FetchResult{}, s.runErr
	}
	var pick *candidate
	for _, tag := range s.order {
		c, ok := s.batch[tag]
		if !ok || len(c.obs) >= c.need {
			continue
		}
		if pick == nil || c.issued+len(c.obs) < pick.issued+len(pick.obs) {
			pick = c
		}
	}
	if pick == nil {
		return FetchResult{Point: s.best.Clone(), Tag: 0, Converged: s.converged}, nil
	}
	pick.issued++
	return FetchResult{Point: pick.point.Clone(), Tag: pick.tag, Converged: false}, nil
}

// Report records a measurement for the tagged candidate. Tag 0 reports
// (measurements of the production configuration) are accepted and ignored.
// Non-finite or negative values are rejected with ErrInvalidValue. When every
// candidate in the current batch has enough measurements, the batch is
// reduced with the estimator and the optimiser resumes.
func (srv *Server) Report(name string, tag uint64, value float64) error {
	return srv.ReportTagged(name, tag, value, "")
}

// ReportTagged is Report with an optional client-supplied report id: a
// reconnecting client that retries a report with the same rid is acknowledged
// without the measurement being counted twice (per-session memory of the
// last 4096 ids).
func (srv *Server) ReportTagged(name string, tag uint64, value float64, rid string) error {
	s, err := srv.session(name)
	if err != nil {
		return err
	}
	return s.reportOne(tag, value, rid)
}

// reportOne records one measurement for s. It is shared by the single-report
// path and batched ReportN frames (which resolve the session once per frame).
// Surplus measurements — values for a candidate that already has enough
// observations — are buffered only up to MaxPendingReports; past the bound
// they are refused with a *BackpressureError. Measurements the batch still
// needs are never refused, so backpressure cannot wedge tuning.
func (s *session) reportOne(tag uint64, value float64, rid string) error {
	if !fault.ValidValue(value) {
		return fmt.Errorf("%w: %g", ErrInvalidValue, value)
	}
	if tag == 0 {
		return nil
	}
	s.mu.Lock()
	s.lastUsed = s.opts.Clock.Now()
	if rid != "" {
		if _, dup := s.seenRIDs[rid]; dup {
			s.mu.Unlock()
			return nil
		}
	}
	c, ok := s.batch[tag]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("harmony: unknown or completed tag %d", tag)
	}
	if len(c.obs) >= c.need {
		if limit := s.opts.MaxPendingReports; limit > 0 && s.surplus >= limit {
			q := s.surplus
			s.mu.Unlock()
			// The rid is deliberately not remembered: a later retry, once the
			// queue has drained, must be processable.
			return &BackpressureError{Queue: q, Limit: limit}
		}
		s.surplus++
	}
	if rid != "" {
		s.rememberRIDLocked(rid)
	}
	c.obs = append(c.obs, value) //paralint:bounded s.opts.MaxPendingReports
	pt := c.point                // read-only after creation; safe to store outside the lock
	s.batchObs++
	if !s.haveWorst || value > s.worstObs {
		s.worstObs, s.haveWorst = value, true
	}
	// Batch complete?
	complete := true
	for _, t := range s.order {
		if bc, ok := s.batch[t]; ok && len(bc.obs) < bc.need {
			complete = false
			break
		}
	}
	if !complete || s.resultCh == nil {
		s.mu.Unlock()
		//paralint:allow boundedres the measurement store is the durable product; growth is the point (snapshot/WAL own retention)
		s.db.Observe(pt, value)
		return nil
	}
	vals := make([]float64, len(s.order))
	for i, t := range s.order {
		vals[i] = s.est.Estimate(s.batch[t].obs)
		delete(s.batch, t)
	}
	ch := s.resultCh
	s.resultCh = nil
	s.surplus = 0
	s.mu.Unlock()
	//paralint:allow boundedres the measurement store is the durable product; growth is the point (snapshot/WAL own retention)
	s.db.Observe(pt, value)
	ch <- vals
	return nil
}

// rememberRIDLocked records a report id, evicting the oldest past the cap.
func (s *session) rememberRIDLocked(rid string) {
	s.seenRIDs[rid] = struct{}{}         //paralint:bounded maxRememberedReports
	s.ridOrder = append(s.ridOrder, rid) //paralint:bounded maxRememberedReports
	if len(s.ridOrder) > maxRememberedReports {
		delete(s.seenRIDs, s.ridOrder[0])
		s.ridOrder = s.ridOrder[1:]
	}
}

// clientLocked returns (creating on first sight, evicting the oldest entry
// past the cap) the tracking entry for a client id; caller holds s.mu.
func (s *session) clientLocked(id string) *clientTrack {
	if ct, ok := s.clients[id]; ok {
		return ct
	}
	ct := &clientTrack{}
	s.clients[id] = ct                    //paralint:bounded maxTrackedClients
	s.clientLRU = append(s.clientLRU, id) //paralint:bounded maxTrackedClients
	if len(s.clientLRU) > maxTrackedClients {
		delete(s.clients, s.clientLRU[0])
		s.clientLRU = s.clientLRU[1:]
	}
	return ct
}

// trackFrame records one dispatched wire frame for (session, client): a
// sequence above the client's high-water mark advances it, anything else is
// counted as a duplicate/stale frame (a reconnect retry, or a chaos-duplicated
// frame that slipped past the connection-level filter). Blank ids, zero
// sequences, and unknown sessions are ignored — in-process callers and
// pre-sequence clients carry neither.
func (srv *Server) trackFrame(name, client string, seq uint64) {
	if name == "" || client == "" || seq == 0 {
		return
	}
	s, err := srv.session(name)
	if err != nil {
		return
	}
	s.mu.Lock()
	ct := s.clientLocked(client)
	if seq > ct.lastSeq {
		ct.lastSeq = seq
	} else {
		ct.dups++
	}
	s.mu.Unlock()
}

// noteDuplicateFrame counts a wire frame the transport layer discarded as a
// duplicate (same connection, sequence at or below the last one seen) without
// dispatching it.
func (srv *Server) noteDuplicateFrame(name, client string) {
	if name == "" || client == "" {
		return
	}
	s, err := srv.session(name)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.clientLocked(client).dups++
	s.mu.Unlock()
}

// ResumeInfo is the server's answer to a resume handshake.
type ResumeInfo struct {
	// LastSeq is the highest frame sequence processed for the client. A
	// client that tracks which frame carried each in-flight request can use
	// it to tell lost requests from lost responses; report idempotency does
	// not depend on it (rids already dedupe).
	LastSeq uint64
	// Dropped is the cumulative count of frames the client sent that never
	// reached dispatch (lost to resets or partitions), summed over resumes.
	Dropped uint64
	// Duplicates is the cumulative duplicate/stale frame count discarded for
	// this client.
	Duplicates uint64
	// Resumes counts the client's resume handshakes, this one included.
	Resumes int
}

// Resume re-attaches a client to a live session after a connection loss: the
// session must already exist (registered, restored from a checkpoint, or
// still live across the reset) — resume never creates state, so it is safe
// to retry. The server answers with the client's frame high-water mark and
// loss/duplicate counters, and mirrors the handshake into the event stream
// as a session_resumed event. A restarted server that lost the client's
// tracking (it is in-memory only) restarts the baseline at sentSeq: Dropped
// counts from the new baseline rather than inventing a loss figure.
func (srv *Server) Resume(name, client string, sentSeq uint64) (ResumeInfo, error) {
	if client == "" {
		return ResumeInfo{}, errors.New("harmony: resume requires a client id")
	}
	s, err := srv.session(name)
	if err != nil {
		return ResumeInfo{}, err
	}
	s.mu.Lock()
	s.lastUsed = s.opts.Clock.Now()
	ct, known := s.clients[client]
	if !known {
		ct = s.clientLocked(client)
		ct.lastSeq = sentSeq
	}
	ct.resumes++
	// sentSeq is the resume frame's own sequence; the lost data frames are
	// the gap strictly between the high-water mark and it.
	if known && sentSeq > 0 && sentSeq-1 > ct.lastSeq {
		ct.dropped += sentSeq - 1 - ct.lastSeq
	}
	if sentSeq > ct.lastSeq {
		ct.lastSeq = sentSeq
	}
	info := ResumeInfo{
		LastSeq:    ct.lastSeq,
		Dropped:    ct.dropped,
		Duplicates: ct.dups,
		Resumes:    ct.resumes,
	}
	s.mu.Unlock()
	s.rec.Record(event.SessionResumed{
		Session: name, Client: client, Resumes: info.Resumes,
		LastSeq: info.LastSeq, Dropped: info.Dropped, Duplicates: info.Duplicates,
	})
	return info, nil
}

// Best returns the best-known configuration and its estimate.
func (srv *Server) Best(name string) (space.Point, float64, bool, error) {
	s, err := srv.session(name)
	if err != nil {
		return nil, 0, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best.Clone(), s.bestVal, s.converged, nil
}

// stop shuts the session down; idempotent.
func (s *session) stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.done)
	}
	s.mu.Unlock()
}

// Stop shuts a session down; outstanding Fetch work is abandoned.
func (srv *Server) Stop(name string) error {
	s, err := srv.session(name)
	if err != nil {
		return err
	}
	s.stop()
	return nil
}

// Close stops every session.
func (srv *Server) Close() {
	for _, n := range srv.Sessions() {
		_ = srv.Stop(n)
	}
}

// sessionCheckpoint is the serialised state of one tuning session. The
// algorithm snapshot comes from core.Snapshotter, so the simplex survives a
// server restart; the in-flight candidate batch is intentionally not
// serialised — the restored optimiser re-proposes it deterministically.
type sessionCheckpoint struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	Params    []wireParam     `json:"params"`
	Alg       json.RawMessage `json:"alg"`
	Best      []float64       `json:"best,omitempty"`
	BestVal   float64         `json:"best_value"`
	WorstObs  float64         `json:"worst_obs"`
	HaveWorst bool            `json:"have_worst"`
	NextTag   uint64          `json:"next_tag"`
	Converged bool            `json:"converged"`
}

// Checkpoint serialises the named session — parameter space, optimiser
// simplex, best point, tag counter — to JSON. It is safe to call mid-tuning:
// the snapshot is taken by the optimiser goroutine between evaluations (or
// directly once the session has finished), so it is always a consistent
// between-steps state. Restore it into a fresh server with RestoreSession.
func (srv *Server) Checkpoint(name string) ([]byte, error) {
	s, err := srv.session(name)
	if err != nil {
		return nil, err
	}
	var res snapResult
	req := make(chan snapResult, 1)
	select {
	case s.snapCh <- req:
		// The optimiser accepted the handshake and writes exactly one reply
		// into the buffered channel before doing anything else (see
		// sessionEvaluator.Eval), so this receive completes without further rendezvous.
		res = <-req //paralint:allow ctxflow reply guaranteed: the snapCh handshake was accepted and the responder's first act is the buffered send
	case <-s.finished:
		// The run goroutine has exited (converged, stopped, or errored); the
		// algorithm is quiescent and safe to snapshot directly.
		res = s.takeSnapshot()
	case <-time.After(10 * time.Second):
		return nil, errors.New("harmony: checkpoint timed out waiting for the optimiser")
	}
	if res.err != nil {
		return nil, res.err
	}
	s.mu.Lock()
	cp := sessionCheckpoint{
		Version:   1,
		Name:      s.name,
		Params:    toWireParams(spaceParams(s.sp)),
		Alg:       res.data,
		Best:      append([]float64(nil), s.best...),
		BestVal:   s.bestVal,
		WorstObs:  s.worstObs,
		HaveWorst: s.haveWorst,
		NextTag:   s.nextTag,
		Converged: s.converged,
	}
	s.mu.Unlock()
	return json.Marshal(&cp)
}

// CheckpointAll serialises every registered session. Sessions still inside
// their initial simplex evaluation have no search state worth preserving and
// are skipped rather than failing the whole set (relevant for a periodic
// checkpointer that may fire moments after a session registers).
func (srv *Server) CheckpointAll() ([]byte, error) {
	var cps []json.RawMessage
	for _, name := range srv.Sessions() {
		cp, err := srv.Checkpoint(name)
		if errors.Is(err, core.ErrNotInitialised) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("harmony: checkpoint %q: %w", name, err)
		}
		cps = append(cps, cp)
	}
	return json.Marshal(cps)
}

// WriteCheckpoint writes CheckpointAll's snapshot to path through
// measuredb.WriteFileAtomic, so a crash mid-write never leaves a truncated
// checkpoint behind.
func (srv *Server) WriteCheckpoint(path string) error {
	data, err := srv.CheckpointAll()
	if err != nil {
		return err
	}
	return measuredb.WriteFileAtomic(path, data)
}

// RestoreSession recreates a session from a Checkpoint blob: the optimiser is
// rebuilt via the server's algorithm factory, its search state restored from
// the snapshot, and tuning resumes exactly where the checkpoint was taken —
// the simplex is not reset. The session name must not already exist.
func (srv *Server) RestoreSession(data []byte) error {
	var cp sessionCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("harmony: bad checkpoint: %w", err)
	}
	if cp.Name == "" {
		return errors.New("harmony: checkpoint has no session name")
	}
	params, err := fromWireParams(cp.Params)
	if err != nil {
		return err
	}
	sp, err := space.New(params...)
	if err != nil {
		return err
	}
	if srv.opts.DB != nil {
		if err := srv.opts.DB.BindSpace(sp.String()); err != nil {
			return err
		}
	}
	alg, err := srv.opts.NewAlgorithm(sp)
	if err != nil {
		return err
	}
	snapper, ok := alg.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("harmony: algorithm %v does not support snapshots", alg)
	}
	if err := snapper.Restore(cp.Alg); err != nil {
		return err
	}
	return srv.shardMutateErr(cp.Name, func(sh *sessionShard) ([]event.Event, error) {
		if _, exists := sh.sessions[cp.Name]; exists {
			return nil, fmt.Errorf("harmony: session %q already exists", cp.Name)
		}
		s := srv.newSession(cp.Name, sp, alg, true)
		s.nextTag = cp.NextTag
		if s.nextTag == 0 {
			s.nextTag = 1
		}
		s.worstObs, s.haveWorst = cp.WorstObs, cp.HaveWorst
		if len(cp.Best) > 0 {
			s.best, s.bestVal = space.Point(cp.Best).Clone(), cp.BestVal
		}
		if best, val := alg.Best(); best != nil {
			s.best, s.bestVal = best, val
		}
		sh.sessions[cp.Name] = s
		go s.run()
		if srv.opts.IdleTimeout > 0 {
			go srv.expire(s)
		}
		return []event.Event{event.Session{Session: cp.Name, Phase: "restored", Detail: alg.String()}}, nil
	})
}

// RestoreAll recreates every session in a CheckpointAll blob.
func (srv *Server) RestoreAll(data []byte) error {
	var cps []json.RawMessage
	if err := json.Unmarshal(data, &cps); err != nil {
		return fmt.Errorf("harmony: bad checkpoint set: %w", err)
	}
	for _, cp := range cps {
		if err := srv.RestoreSession(cp); err != nil {
			return err
		}
	}
	return nil
}

// spaceParams recovers the parameter list from a space.
func spaceParams(sp *space.Space) []space.Parameter {
	out := make([]space.Parameter, sp.Dim())
	for i := range out {
		out[i] = sp.Param(i)
	}
	return out
}

// SessionStats summarises one session for monitoring.
type SessionStats struct {
	Name      string    `json:"name"`
	Converged bool      `json:"converged"`
	Best      []float64 `json:"best"`
	BestValue float64   `json:"best_value"`
	Pending   int       `json:"pending"` // candidates awaiting measurements
	NextTag   uint64    `json:"next_tag"`
}

// Stats returns a monitoring snapshot of the named session.
func (srv *Server) Stats(name string) (SessionStats, error) {
	s, err := srv.session(name)
	if err != nil {
		return SessionStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := 0
	for _, tag := range s.order {
		if c, ok := s.batch[tag]; ok && len(c.obs) < c.need {
			pending++
		}
	}
	return SessionStats{
		Name:      s.name,
		Converged: s.converged,
		Best:      append([]float64(nil), s.best...),
		BestValue: s.bestVal,
		Pending:   pending,
		NextTag:   s.nextTag,
	}, nil
}
