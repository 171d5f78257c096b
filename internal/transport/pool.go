package transport

import (
	"context"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"
)

// DefaultMaxPerDest is the default per-destination in-flight request
// limit used by NewPooled and NewPooledHTTPClient.
const DefaultMaxPerDest = 64

// NewPooledHTTPClient returns an HTTPClient with a pool of its own that
// reuses keep-alive connections and holds at most maxPerHost to each
// destination, so a gateway's outbound calls stop paying per-request
// TCP setup. A call that finds every connection busy waits for one.
// maxPerHost <= 0 selects DefaultMaxPerDest.
func NewPooledHTTPClient(maxPerHost int) *HTTPClient {
	if maxPerHost <= 0 {
		maxPerHost = DefaultMaxPerDest
	}
	return &HTTPClient{pool: newConnPool(maxPerHost)}
}

// connPool keeps an HTTPClient's connections, per dial address. A
// connection counts as open from its dial until it is closed, busy or
// idle; a destination has at most maxPerDest open. Callers that find none
// idle and the destination at its cap queue as waiters: a connection
// returned or a slot freed goes to the oldest waiter, so waiters exist
// only while nothing is idle.
type connPool struct {
	maxPerDest  int
	timeout     time.Duration // see requestTimeout
	idleTimeout time.Duration
	maxBody     int64 // see maxBody

	mu    sync.Mutex
	dests map[string]*dest
	sweep *time.Timer // set while any connection is idle
}

type dest struct {
	open    int
	idle    []*conn      // most recently returned last
	waiters []chan *conn // oldest first; nil received = a slot, dial
}

func newConnPool(maxPerDest int) *connPool {
	return &connPool{maxPerDest: maxPerDest, timeout: requestTimeout, idleTimeout: idleTimeout, maxBody: maxBody, dests: make(map[string]*dest)}
}

// get returns a connection to addr with its deadline set: the most
// recently used idle one that is still alive, a new dial under a free
// slot, or, at the cap, the first one handed back. A dial failure is
// marked not delivered.
func (p *connPool) get(ctx context.Context, addr string, deadline time.Time) (*conn, error) {
	p.mu.Lock()
	d := p.dests[addr]
	if d == nil {
		d = &dest{}
		p.dests[addr] = d
	}
	for n := len(d.idle); n > 0; n = len(d.idle) {
		c := d.idle[n-1]
		d.idle[n-1] = nil
		d.idle = d.idle[:n-1]
		if time.Since(c.idleAt) < p.idleTimeout && c.nc.SetDeadline(deadline) == nil && c.alive() {
			p.mu.Unlock()
			return c, nil
		}
		c.nc.Close()
		d.open--
	}
	if d.open < p.maxPerDest {
		d.open++
		p.mu.Unlock()
		return p.dial(ctx, addr, deadline)
	}
	w := make(chan *conn, 1)
	d.waiters = append(d.waiters, w)
	p.mu.Unlock()

	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	var err error
	select {
	case c := <-w:
		if c == nil {
			return p.dial(ctx, addr, deadline)
		}
		if err := c.nc.SetDeadline(deadline); err != nil {
			p.discard(c)
			return nil, err
		}
		return c, nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-t.C:
		err = fmt.Errorf("waiting for a connection: %w", os.ErrDeadlineExceeded)
	}
	p.mu.Lock()
	if i := slices.Index(d.waiters, w); i >= 0 {
		d.waiters = slices.Delete(d.waiters, i, i+1)
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	// Something was handed over as this caller gave up: pass it on.
	if c := <-w; c != nil {
		p.put(c)
	} else {
		p.release(addr)
	}
	return nil, err
}

func (p *connPool) dial(ctx context.Context, addr string, deadline time.Time) (*conn, error) {
	d := net.Dialer{Timeout: dialTimeout, Deadline: deadline, KeepAlive: tcpKeepAlive}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		p.release(addr)
		// Nothing reached the server: safe for callers to replay
		// elsewhere.
		return nil, MarkNotDelivered(err)
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		p.release(addr)
		return nil, err
	}
	return newConn(addr, nc, p.maxBody), nil
}

// put takes back a connection that can carry another request.
func (p *connPool) put(c *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.dests[c.addr]
	if len(d.waiters) > 0 {
		w := d.waiters[0]
		d.waiters = d.waiters[1:]
		w <- c
		return
	}
	c.idleAt = time.Now()
	d.idle = append(d.idle, c)
	if p.sweep == nil {
		p.sweep = time.AfterFunc(p.idleTimeout, p.sweepIdle)
	}
}

// discard closes a connection and frees its slot.
func (p *connPool) discard(c *conn) {
	c.nc.Close()
	p.release(c.addr)
}

// release frees one of addr's slots, handing it to the oldest waiter.
func (p *connPool) release(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.dests[addr]
	if len(d.waiters) > 0 {
		w := d.waiters[0]
		d.waiters = d.waiters[1:]
		w <- nil
		return
	}
	d.open--
}

// sweepIdle closes the connections idle for idleTimeout, forgets the
// destinations left with none open, and re-arms for the next expiry.
func (p *connPool) sweepIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	var next time.Duration
	for addr, d := range p.dests {
		kept := d.idle[:0]
		for _, c := range d.idle {
			if left := p.idleTimeout - now.Sub(c.idleAt); left > 0 {
				kept = append(kept, c)
				if next == 0 || left < next {
					next = left
				}
				continue
			}
			c.nc.Close()
			d.open--
		}
		clear(d.idle[len(kept):])
		d.idle = kept
		if d.open == 0 {
			delete(p.dests, addr)
		}
	}
	p.sweep = nil
	if next > 0 {
		p.sweep = time.AfterFunc(next, p.sweepIdle)
	}
}

// Pooled wraps any RoundTripper with a per-destination in-flight
// request limit. Requests beyond the limit queue until a slot frees or
// their context is cancelled, giving callers backpressure instead of
// letting a traffic burst fan out an unbounded number of concurrent
// calls to one host.
//
// An HTTPClient needs no wrapper: every call holds one of its capped
// connections, so its pool already bounds and queues calls per
// destination. Pooled limits transports that do not, such as netsim's.
type Pooled struct {
	inner   RoundTripper
	perDest int

	mu   sync.Mutex
	sems map[string]chan struct{} // addr -> slot semaphore
}

// NewPooled wraps inner with a per-destination limit of perDest
// in-flight requests (<= 0 selects DefaultMaxPerDest).
func NewPooled(inner RoundTripper, perDest int) *Pooled {
	if perDest <= 0 {
		perDest = DefaultMaxPerDest
	}
	return &Pooled{inner: inner, perDest: perDest, sems: make(map[string]chan struct{})}
}

// sem returns the destination's slot semaphore, creating it on first
// use. The set of destinations a node talks to (gateways, MAS hosts)
// is small and stable, so entries are never evicted.
func (p *Pooled) sem(addr string) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sems[addr]
	if !ok {
		s = make(chan struct{}, p.perDest)
		p.sems[addr] = s
	}
	return s
}

// RoundTrip implements RoundTripper. It acquires a destination slot
// (waiting if the destination is saturated, honouring ctx), forwards
// the call, and releases the slot.
func (p *Pooled) RoundTrip(ctx context.Context, addr string, req *Request) (*Response, error) {
	s := p.sem(addr)
	select {
	case s <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s }()
	return p.inner.RoundTrip(ctx, addr, req)
}

// InFlight reports the current number of in-flight requests to addr
// (tests, metrics).
func (p *Pooled) InFlight(addr string) int {
	p.mu.Lock()
	s, ok := p.sems[addr]
	p.mu.Unlock()
	if !ok {
		return 0
	}
	return len(s)
}
