package harmony

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"paratune/internal/event"
)

// sessionShards is the width of the sharded session table: registration and
// session lookup for different names spread over independently locked maps
// (FNV-1a on the session name, mirroring internal/measuredb's 16-shard
// store), so fleet-scale request storms on one session never serialise
// against registrations or lookups of another. Dispatch itself is guarded by
// each session's own mutex; the shard lock is held only for map access.
const sessionShards = 16

// defaultMaxPendingReports bounds the per-session pending measurement queue
// (surplus observations buffered beyond what the current batch still needs)
// when ServerOptions.MaxPendingReports is 0.
const defaultMaxPendingReports = 4096

// maxBatchOps caps how many candidates or measurements one batched fetchN /
// reportN frame may carry, so a hostile frame cannot request an unbounded
// allocation or monopolise a session lock.
const maxBatchOps = 1024

// FNV-1a constants for shard selection (same idiom as internal/measuredb).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// sessionShard is one lock-striped slice of the session table. The shard
// mutex sits between Server-level coordination (rank 20, now unused on the
// dispatch path) and the per-session mutex (rank 30) in the lock-rank
// ladder: a shard lock may be taken while no lock is held, and session or
// measuredb locks may be taken under it (registration binds the DB space
// under the shard lock), but never another shard's.
type sessionShard struct {
	mu       sync.Mutex //paralint:lockrank 22
	sessions map[string]*session
}

// shard returns the shard owning name.
func (srv *Server) shard(name string) *sessionShard {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return &srv.shards[h%uint64(len(srv.shards))]
}

// shardMutateErr runs fn while holding name's shard lock and records every
// event fn queued only after the lock is released. It is the single place
// the "emit only after the table lock is released" rule lives for
// shard-table mutations (register, restore, expire): the recorder may block
// or re-enter the server, and emitting under the shard lock would deadlock —
// routing every mutation through this helper keeps the event-hygiene
// contract from regressing one call site at a time.
func (srv *Server) shardMutateErr(name string, fn func(sh *sessionShard) ([]event.Event, error)) error {
	sh := srv.shard(name)
	sh.mu.Lock()
	evs, err := fn(sh)
	sh.mu.Unlock()
	for _, e := range evs {
		srv.rec.Record(e)
	}
	return err
}

// shardMutate is shardMutateErr for mutations that cannot fail.
func (srv *Server) shardMutate(name string, fn func(sh *sessionShard) []event.Event) {
	//paralint:allow errdiscipline adapter: fn queues events and cannot fail
	_ = srv.shardMutateErr(name, func(sh *sessionShard) ([]event.Event, error) {
		return fn(sh), nil
	})
}

// session resolves a name to its live session, taking only the owning
// shard's lock for the map read — lookups for different sessions proceed on
// different shards without contention.
func (srv *Server) session(name string) (*session, error) {
	sh := srv.shard(name)
	sh.mu.Lock()
	s, ok := sh.sessions[name]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, name)
	}
	return s, nil
}

// Sessions lists registered session names in sorted order. The listing walks
// the shards one lock at a time — no global lock exists to hold — so it is a
// consistent snapshot only when no registrations are in flight; sorting
// makes the order (and everything built on it, notably CheckpointAll)
// deterministic regardless of shard hashing.
func (srv *Server) Sessions() []string {
	var names []string
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.mu.Lock()
		for n := range sh.sessions {
			names = append(names, n)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// ErrBackpressure marks a measurement the server refused because the
// session's pending queue — surplus observations buffered beyond what the
// current candidate batch still needs — is full. Wire responses carry it as
// code "backpressure". It is retryable: the queue drains when the optimiser
// consumes the batch, and measurements the batch still *needs* are never
// refused, so backpressure can shed a flood without wedging tuning.
var ErrBackpressure = errors.New("harmony: session pending queue full (backpressure)")

// BackpressureError is the structured form of ErrBackpressure, carrying the
// queue depth and bound at refusal time for the backpressure event.
type BackpressureError struct {
	// Queue is the pending-queue depth when the report was refused.
	Queue int
	// Limit is the session's configured bound.
	Limit int
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("harmony: session pending queue full (backpressure): %d buffered, limit %d", e.Queue, e.Limit)
}

// Is reports ErrBackpressure identity, so errors.Is(err, ErrBackpressure)
// matches the structured form.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// IsBackpressure reports whether an error is the server's backpressure
// refusal — on the wire client it carries code "backpressure"; in-process it
// is a *BackpressureError. The cure is to back off until the session's batch
// advances, not to redial.
func IsBackpressure(err error) bool {
	if errors.Is(err, ErrBackpressure) {
		return true
	}
	var ae *appError
	return errors.As(err, &ae) && ae.code == codeBackpressure
}

// ReportItem is one measurement inside a batched reportn frame.
type ReportItem struct {
	// Tag identifies the candidate the measurement belongs to; 0 reports
	// (production-configuration measurements) are accepted and ignored.
	Tag uint64 `json:"tag"`
	// Value is the measured time.
	Value float64 `json:"value"`
	// RID is the optional client-unique report id for idempotent retries.
	RID string `json:"rid,omitempty"`
}

// BatchReportResult summarises one ReportN frame.
type BatchReportResult struct {
	// Accepted counts measurements stored (idempotent duplicates included:
	// the retry succeeded even though nothing new was recorded).
	Accepted int
	// Rejected counts invalid values, unknown or completed tags, and items
	// past the maxBatchOps per-frame cap.
	Rejected int
	// Refused counts measurements shed by backpressure.
	Refused int
	// Queue is the session's pending-queue depth after the frame.
	Queue int
}

// FetchN returns up to n units of work for a client of the named session in
// one round trip. Outstanding candidates are handed out round-robin from a
// per-session cursor — concurrent batched fetchers get disjoint work instead
// of n copies of the least-measured candidate, which is what keeps one
// greedy client from starving the others of useful work. When every
// candidate is fully measured (or no batch is outstanding) it returns the
// single best-known configuration with Tag 0, exactly like Fetch.
func (srv *Server) FetchN(name string, n int) ([]FetchResult, error) {
	s, err := srv.session(name)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 1
	}
	if n > maxBatchOps {
		n = maxBatchOps
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastUsed = s.opts.Clock.Now()
	if s.runErr != nil {
		return nil, s.runErr
	}
	out := make([]FetchResult, 0, n)
	total := len(s.order)
	last := -1
	for off := 0; off < total && len(out) < n; off++ {
		pos := (s.rrNext + off) % total
		c, ok := s.batch[s.order[pos]]
		if !ok || len(c.obs) >= c.need {
			continue
		}
		c.issued++
		out = append(out, FetchResult{Point: c.point.Clone(), Tag: c.tag})
		last = pos
	}
	if last >= 0 {
		s.rrNext = (last + 1) % total
		return out, nil
	}
	return append(out, FetchResult{Point: s.best.Clone(), Tag: 0, Converged: s.converged}), nil
}

// ReportN records a batch of measurements for the named session in one round
// trip. Items are applied in order; each is classified rather than failing
// the frame — invalid values and unknown/completed tags count as Rejected,
// backpressure refusals as Refused — so one bad measurement cannot void the
// rest of the frame. The session is resolved once for the whole batch.
// Items past maxBatchOps are not applied and count as Rejected, so the
// result still classifies every item.
func (srv *Server) ReportN(name string, items []ReportItem) (BatchReportResult, error) {
	s, err := srv.session(name)
	if err != nil {
		return BatchReportResult{}, err
	}
	var res BatchReportResult
	if len(items) > maxBatchOps {
		res.Rejected = len(items) - maxBatchOps
		items = items[:maxBatchOps]
	}
	for i := range items {
		switch err := s.reportOne(items[i].Tag, items[i].Value, items[i].RID); {
		case err == nil:
			res.Accepted++
		case errors.Is(err, ErrBackpressure):
			res.Refused++
		default:
			res.Rejected++
		}
	}
	s.mu.Lock()
	res.Queue = s.surplus
	s.mu.Unlock()
	return res, nil
}
