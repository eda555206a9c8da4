package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing model. A span is one timed call into a layer, recorded from the
// benchmark's side of the layer's public seam: name, start, end, and its
// parent — the enclosing span on the same goroutine's track, whose children
// time it counts towards. Self time is a span's duration minus the time its
// children covered. Spans that belong to one request carry the same
// (conn, seq) pair: a client round trip and the server-side busy span it
// caused are recorded on different goroutines and matched by that pair.
//
// Spans stay in memory. Tracks fold them per name into aggregates (count,
// total, self, sampled durations) and keep the (conn, seq) records of
// requests, so memory is bounded however long the traced window runs; the
// aggregates are written out as the per-layer report at the end.

// span is a completed span awaiting its track's flush.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's base
	self       int64
	conn       int32 // -1 when the span belongs to no request
	seq        uint32
}

func (s span) dur() int64 { return s.end - s.start }

// nameAgg aggregates the spans or leaf calls of one name.
type nameAgg struct {
	count int64
	total int64 // summed duration, ns
	self  int64 // summed self time, ns (leaf calls: equal to total)
	res   *reservoir
}

// reqRec is one request's span reduced to what pairing needs.
type reqRec struct {
	conn int32
	seq  uint32
	dur  int64
}

const (
	durSample = 1 << 14 // sampled durations kept per name
	maxReqs   = 1 << 21 // request records kept per side
)

// tracer collects what every track flushes. Tracks flush under mu; the
// analysis reads a snapshot once the workers have stopped.
type tracer struct {
	// now reads the trace clock in nanoseconds; tests substitute a fake.
	now func() int64

	mu       sync.Mutex
	names    map[string]*nameAgg
	counts   map[string]int64
	clients  []reqRec // client round trips
	servers  []reqRec // server busy spans
	shared   map[string]*sharedAgg
	dropReqs int
}

// sharedAgg times calls into a value many goroutines share, outside any
// track: counters are atomic, and one call in sharedEvery is sampled.
type sharedAgg struct {
	count, total atomic.Int64
}

const sharedEvery = 16

func newTracer() *tracer {
	base := time.Now()
	t := &tracer{now: func() int64 { return int64(time.Since(base)) }}
	t.reset()
	return t
}

// reset discards what the tracer collected so far (a warm-up phase). A
// track still holding unflushed warm-up spans adds at most one flush batch
// later.
func (t *tracer) reset() {
	t.mu.Lock()
	t.clearLocked()
	t.mu.Unlock()
}

func (t *tracer) clearLocked() {
	t.names = make(map[string]*nameAgg)
	t.counts = make(map[string]int64)
	t.clients, t.servers = t.clients[:0], t.servers[:0]
	t.shared = make(map[string]*sharedAgg)
	t.dropReqs = 0
}

// aggLocked returns the aggregate for name; caller holds t.mu.
func (t *tracer) aggLocked(name string) *nameAgg {
	a := t.names[name]
	if a == nil {
		a = &nameAgg{res: newReservoir(durSample, int64(len(t.names))+1)}
		t.names[name] = a
	}
	return a
}

// sharedLeaf records one call timed outside any track, for wrappers shared
// by many goroutines (the server-wide estimator and cache). Its time is not
// charged to any enclosing span.
func (t *tracer) sharedLeaf(name string, d int64) {
	t.mu.Lock()
	a := t.shared[name]
	if a == nil {
		a = &sharedAgg{}
		t.shared[name] = a
	}
	t.mu.Unlock()
	n := a.count.Add(1)
	a.total.Add(d)
	if n%sharedEvery == 0 {
		t.mu.Lock()
		t.aggLocked(name).res.add(float64(d))
		t.mu.Unlock()
	}
}

// traceData is a copy of everything a tracer collected.
type traceData struct {
	names            map[string]nameAgg
	counts           map[string]int64
	clients, servers []reqRec
	dropReqs         int
}

func (t *tracer) snapshot() traceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := traceData{
		names:    make(map[string]nameAgg, len(t.names)),
		counts:   make(map[string]int64, len(t.counts)),
		clients:  append([]reqRec(nil), t.clients...),
		servers:  append([]reqRec(nil), t.servers...),
		dropReqs: t.dropReqs,
	}
	for k, v := range t.names {
		d.names[k] = *v
	}
	for k, v := range t.shared {
		a := d.names[k]
		a.count, a.total, a.self = v.count.Load(), v.total.Load(), v.total.Load()
		d.names[k] = a
	}
	for k, v := range t.counts {
		d.counts[k] = v
	}
	return d
}

// openSpan is a span whose end has not been recorded yet.
type openSpan struct {
	name  string
	start int64
	child int64
	conn  int32
	seq   uint32
}

// track is one goroutine's span stack. Only its owner goroutine calls it;
// completed spans and leaf calls are buffered and flushed in batches.
type track struct {
	t      *tracer
	client bool // request spans on this track are client round trips
	stack  []openSpan
	buf    []span
	counts map[string]int64
}

func (t *tracer) newTrack() *track {
	return &track{t: t, counts: make(map[string]int64)}
}

func (k *track) begin(name string) { k.beginReq(name, -1, 0) }

// beginReq opens a span that belongs to request (conn, seq).
func (k *track) beginReq(name string, conn int32, seq uint32) {
	k.stack = append(k.stack, openSpan{name: name, start: k.t.now(), conn: conn, seq: seq})
}

// end closes the innermost open span and charges its duration to its
// parent's children.
func (k *track) end() {
	now := k.t.now()
	n := len(k.stack) - 1
	o := k.stack[n]
	k.stack = k.stack[:n]
	s := span{name: o.name, start: o.start, end: now, conn: o.conn, seq: o.seq}
	s.self = s.dur() - o.child
	if n > 0 {
		k.stack[n-1].child += s.dur()
	}
	k.push(s)
}

// leaf records one call of d nanoseconds too frequent to be worth a span
// of its own; the enclosing open span counts it as child time.
func (k *track) leaf(name string, d int64) {
	if n := len(k.stack); n > 0 {
		k.stack[n-1].child += d
	}
	k.push(span{name: name, end: d, self: d, conn: -1})
}

func (k *track) push(s span) {
	k.buf = append(k.buf, s)
	if len(k.buf) >= 256 {
		k.flush()
	}
}

// count adds n to a named counter, flushed with the track's spans.
func (k *track) count(name string, n int64) { k.counts[name] += n }

// flush hands buffered spans and counters to the tracer.
func (k *track) flush() {
	t := k.t
	t.mu.Lock()
	for _, s := range k.buf {
		a := t.aggLocked(s.name)
		a.count++
		a.total += s.dur()
		a.self += s.self
		a.res.add(float64(s.dur()))
		if s.conn < 0 {
			continue
		}
		side := &t.servers
		if k.client {
			side = &t.clients
		}
		if len(*side) >= maxReqs {
			t.dropReqs++
			continue
		}
		*side = append(*side, reqRec{conn: s.conn, seq: s.seq, dur: s.dur()})
	}
	for name, n := range k.counts {
		t.counts[name] += n
		delete(k.counts, name)
	}
	t.mu.Unlock()
	k.buf = k.buf[:0]
}

// tracedConn is the client side of a traced connection: it counts the
// transport bytes each round trip moves.
type tracedConn struct {
	net.Conn
	n *byteCount
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.in.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.out.Add(int64(n))
	return n, err
}

// tracedListener wraps the server's listener so every accepted connection
// records one busy span per request, from the read that brings the request
// in to the write that starts its response. Connections are numbered in
// accept order, which is dial order because the benchmark dials serially.
type tracedListener struct {
	net.Listener
	t    *tracer
	name string
	next int32 // only the accept loop's goroutine touches it
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	id := l.next
	l.next++
	return &busyConn{Conn: c, k: l.t.newTrack(), id: id, name: l.name}, nil
}

// busyConn is used by the one handler goroutine that serves it, so its
// track needs no lock; Close may come from another goroutine and touches
// nothing here.
type busyConn struct {
	net.Conn
	k    *track
	id   int32
	seq  uint32
	busy bool
	name string
}

func (c *busyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.busy {
		c.busy = true
		c.seq++
		c.k.beginReq(c.name, c.id, c.seq)
	}
	return n, err
}

func (c *busyConn) Write(p []byte) (int, error) {
	if c.busy {
		c.busy = false
		c.k.end()
		// Flushed per request: the connection may close from another
		// goroutine at any time, and no span may stay behind in the buffer.
		c.k.flush()
	}
	return c.Conn.Write(p)
}

// pairRequests matches each client round trip to the server busy span with
// the same (conn, seq) and returns, per matched pair, the client-side
// remainder (round trip minus server busy) and the busy time, in ns.
func pairRequests(td traceData) (clientSide, busy []float64) {
	type key struct {
		conn int32
		seq  uint32
	}
	srv := make(map[key]int64, len(td.servers))
	for _, s := range td.servers {
		srv[key{s.conn, s.seq}] = s.dur
	}
	for _, c := range td.clients {
		if b, ok := srv[key{c.conn, c.seq}]; ok {
			clientSide = append(clientSide, float64(c.dur-b))
			busy = append(busy, float64(b))
		}
	}
	return clientSide, busy
}

// sortedDurs returns a name's sampled durations, sorted, in µs.
func sortedDurs(a nameAgg) []float64 {
	if a.res == nil {
		return nil
	}
	xs := make([]float64, len(a.res.vals))
	for i, v := range a.res.vals {
		xs[i] = v / 1e3
	}
	sort.Float64s(xs)
	return xs
}
