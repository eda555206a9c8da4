package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"paratune/internal/harmony"
)

// retireAfter is the serve workloads' harmony IdleTimeout: a session the
// load generator has retired (converged, never fetched again) leaves the
// session table this long after its last request, so the table holds the
// live sessions plus a bounded tail of retired ones and memory stays flat
// across the window. Live sessions are touched every few milliseconds.
const retireAfter = 200 * time.Millisecond

// rig is an in-process harmonyd: a harmony.Server served by harmony.Serve
// over a memory listener, so the kernel socket stack stays out of the
// measurement and the run needs no ports.
type rig struct {
	srv    *harmony.Server
	ml     *memListener
	served chan error
	tr     *tracer
	bytes  *byteCount // nil untraced
	dials  atomic.Int32
}

// byteCount is the transport volume the client side of a rig moved.
type byteCount struct{ in, out atomic.Int64 }

// startRig serves srvOpts. With a tracer, accepted connections record one
// busy span per request under spanName and client connections count bytes.
func startRig(srvOpts harmony.ServerOptions, tr *tracer, spanName string) *rig {
	r := &rig{srv: harmony.NewServer(srvOpts), ml: newMemListener(), served: make(chan error, 1), tr: tr}
	var l net.Listener = r.ml
	if tr != nil {
		l = &tracedListener{Listener: r.ml, t: tr, name: spanName}
		r.bytes = &byteCount{}
	}
	go func() { r.served <- harmony.Serve(l, r.srv) }()
	return r
}

// dial opens one connection to the rig. Connections are numbered in dial
// order; callers dial one at a time, so the number matches the accept
// order the server-side spans carry.
func (r *rig) dial() (net.Conn, error) {
	c, err := r.ml.dial()
	if err != nil {
		return nil, err
	}
	r.dials.Add(1)
	if r.bytes != nil {
		return &tracedConn{Conn: c, n: r.bytes}, nil
	}
	return c, nil
}

// client dials a harmony client over wire ("" is the DialOptions default)
// and returns it with its connection number.
func (r *rig) client(wire harmony.Wire, seed int64) (*harmony.Client, int32, error) {
	id := r.dials.Load()
	c, err := harmony.DialWith("perfbench", harmony.DialOptions{Wire: wire, DialFunc: r.dial, Seed: seed})
	if err != nil {
		return nil, 0, fmt.Errorf("dial: %w", err)
	}
	return c, id, nil
}

// close stops accepting, closes every served connection, waits for the
// handlers, then stops every session.
func (r *rig) close() error {
	_ = r.ml.Close() // never fails
	err := <-r.served
	r.srv.Close()
	return err
}

// memListener is an in-process net.Listener over net.Pipe: dial makes a
// pipe and hands its server end to Accept.
type memListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unblocks Accept and fails later dials.
func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	p := &memPipe{}
	p.ends[0], p.ends[1] = net.Pipe()
	select {
	case l.ch <- &memConn{Conn: p.ends[1], p: p}:
		return &memConn{Conn: p.ends[0], p: p}, nil
	case <-l.done:
		_ = p.ends[0].Close() // never fails
		_ = p.ends[1].Close()
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memPipe is one memory connection. net.Pipe keeps a pending deadline
// timer, and through it the pipe, alive until the deadline passes, even
// after both ends are closed, and an end can no longer clear its deadline
// once the other end is closed. harmony arms a five-minute read deadline
// per request, so fed-sync's thousand connections a second would pile up
// on the heap for five minutes each, which closed TCP connections do not.
// The first Close of either end therefore clears the deadlines of both,
// and deadlines set after that are dropped.
type memPipe struct {
	mu       sync.Mutex
	released bool
	ends     [2]net.Conn
}

// setDeadline runs set unless the pipe is being closed.
func (p *memPipe) setDeadline(set func() error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		return nil
	}
	return set()
}

func (p *memPipe) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		return
	}
	p.released = true
	for _, c := range p.ends {
		_ = c.SetDeadline(time.Time{}) // both ends are still open here
	}
}

// memConn is one end of a memPipe.
type memConn struct {
	net.Conn
	p *memPipe
}

func (c *memConn) SetDeadline(t time.Time) error {
	return c.p.setDeadline(func() error { return c.Conn.SetDeadline(t) })
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	return c.p.setDeadline(func() error { return c.Conn.SetReadDeadline(t) })
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	return c.p.setDeadline(func() error { return c.Conn.SetWriteDeadline(t) })
}

func (c *memConn) Close() error {
	c.p.release()
	return c.Conn.Close()
}

// rtClock times one client connection's round trips: a latency sample per
// round trip and, when traced, a span keyed by (connection, request number)
// that pairs it with the server's busy span for the same request.
type rtClock struct {
	conn int32
	seq  uint32
	lat  *reservoir // µs; lat.seen counts the round trips
	k    *track     // nil untraced
}

func (c *rtClock) begin(name string) time.Time {
	c.seq++
	if c.k != nil {
		c.k.beginReq(name, c.conn, c.seq)
	}
	return time.Now()
}

func (c *rtClock) end(t0 time.Time) {
	el := time.Since(t0)
	if c.k != nil {
		c.k.end()
	}
	c.lat.add(float64(el) / float64(time.Microsecond))
}
