package gateway

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdagent/internal/pisec"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// gatedStatus decorates a gateway's transport: every /atp/status call
// is counted and, when release is set, waits for one token from it.
// With panics set, a status call panics instead.
type gatedStatus struct {
	next    transport.RoundTripper
	release chan struct{}
	panics  atomic.Bool

	calls, inFlight, peak atomic.Int64
}

func (g *gatedStatus) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if req.Path != "/atp/status" {
		return g.next.RoundTrip(ctx, addr, req)
	}
	if g.panics.Load() {
		panic("status transport failed")
	}
	g.calls.Add(1)
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	if g.release != nil {
		<-g.release
	}
	return g.next.RoundTrip(ctx, addr, req)
}

// newOutboundFixture builds a gateway whose outbound calls go through
// a gatedStatus, with OutboundWorkers 2, and dispatches one agent that
// stays running at home (agent loops never run), so every status
// request for it makes exactly one /atp/status call.
func newOutboundFixture(t *testing.T, gate *gatedStatus) (*fixture, string) {
	t.Helper()
	f := newFixtureCfg(t, func(cfg *Config) {
		gate.next = cfg.Transport
		cfg.Transport = gate
		cfg.Spawn = func(func()) {}
		cfg.OutboundWorkers = 2
	})
	f.addSlowEcho(t)
	sub := f.subscribe(t, "slow", "dev-1")
	resp := f.dispatchPI(t, &wire.PackedInformation{
		CodeID:      "slow",
		DispatchKey: pisec.DispatchKey("slow", sub.Secret),
		Owner:       "dev-1",
		Source:      slowEchoSrc,
	}, false)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	return f, resp.Text()
}

func (f *fixture) askStatus(ctx context.Context, agentID string) *transport.Response {
	req := &transport.Request{Path: "/pdagent/status"}
	req.SetHeader("agent", agentID)
	resp, err := f.tr.RoundTrip(ctx, "gw-t", req)
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "transport: %v", err)
	}
	return resp
}

// gauge reads one unlabelled gauge from the gateway's scrape.
func (f *fixture) gauge(t *testing.T, name string) int {
	t.Helper()
	scrape := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"}).Text()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return int(n)
		}
	}
	t.Fatalf("scrape lacks %s", name)
	return 0
}

// TestOutboundWorkIsBounded pins OutboundWorkers through the public
// surface: at most that many status chases reach the transport at
// once, the rest wait and show in the outbound gauges, a waiter whose
// context ends never reaches the transport, and Close fails waiters
// but returns only once the running calls are done.
func TestOutboundWorkIsBounded(t *testing.T) {
	gate := &gatedStatus{release: make(chan struct{}, 16)}
	f, agentID := newOutboundFixture(t, gate)
	defer f.gw.Close()

	burst := func(n int) (answers chan *transport.Response) {
		answers = make(chan *transport.Response, n)
		for i := 0; i < n; i++ {
			go func() { answers <- f.askStatus(context.Background(), agentID) }()
		}
		return answers
	}
	blockedAtTwo := func() {
		waitUntil(t, "2 calls blocked and 6 waiting", func() bool {
			return gate.inFlight.Load() == 2 &&
				f.gauge(t, "pdagent_outbound_busy") == 2 &&
				f.gauge(t, "pdagent_outbound_queue_depth") == 6
		})
	}

	answers := burst(8)
	blockedAtTwo()
	if w := f.gauge(t, "pdagent_outbound_workers"); w != 2 {
		t.Fatalf("pdagent_outbound_workers = %d, want 2", w)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan *transport.Response, 1)
	go func() { cancelled <- f.askStatus(ctx, agentID) }()
	waitUntil(t, "a seventh waiter", func() bool { return f.gauge(t, "pdagent_outbound_queue_depth") == 7 })
	cancel()
	if resp := <-cancelled; resp.IsOK() {
		t.Fatalf("cancelled waiter answered %d %s", resp.Status, resp.Text())
	}

	for i := 0; i < 8; i++ {
		gate.release <- struct{}{}
	}
	for i := 0; i < 8; i++ {
		if resp := <-answers; !resp.IsOK() || resp.GetHeader("agent-state") != "travelling" {
			t.Fatalf("status: %d %s (state %q)", resp.Status, resp.Text(), resp.GetHeader("agent-state"))
		}
	}
	waitUntil(t, "the outbound gauges to drain", func() bool {
		return f.gauge(t, "pdagent_outbound_busy") == 0 && f.gauge(t, "pdagent_outbound_queue_depth") == 0
	})
	if c, p := gate.calls.Load(), gate.peak.Load(); c != 8 || p != 2 {
		t.Fatalf("status calls = %d (peak %d in flight), want 8 (peak 2): the cancelled waiter must not reach the transport", c, p)
	}

	answers = burst(8)
	blockedAtTwo()
	closed := make(chan struct{})
	go func() {
		f.gw.Close()
		close(closed)
	}()
	var failed int
	for failed < 6 {
		select {
		case resp := <-answers:
			if resp.Status != transport.StatusServerError {
				t.Fatalf("waiter at Close: %d %s, want %d", resp.Status, resp.Text(), transport.StatusServerError)
			}
			failed++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 6 waiters failed after Close", failed)
		}
	}
	select {
	case <-closed:
		t.Fatalf("Close returned while 2 outbound calls were still running")
	case <-time.After(20 * time.Millisecond):
	}
	gate.release <- struct{}{}
	gate.release <- struct{}{}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close did not return after the running calls were released")
	}
	for i := failed; i < 8; i++ {
		<-answers
	}

	if resp := f.askStatus(context.Background(), agentID); resp.Status != transport.StatusServerError {
		t.Fatalf("status after Close: %d %s, want %d", resp.Status, resp.Text(), transport.StatusServerError)
	}
	rreq := &transport.Request{Path: "/pdagent/manage/retract"}
	rreq.SetHeader("agent", agentID)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", rreq)
	if err != nil || resp.Status != transport.StatusUnavailable {
		t.Fatalf("retract after Close: %v %v, want %d", resp, err, transport.StatusUnavailable)
	}
	if c, p := gate.calls.Load(), gate.peak.Load(); c != 10 || p != 2 {
		t.Fatalf("status calls = %d (peak %d in flight), want 10 (peak 2)", c, p)
	}
}

// TestOutboundPanicIsAnAnswer: a panic inside an outbound call turns
// into an error answer for that request, and the next request is
// served normally.
func TestOutboundPanicIsAnAnswer(t *testing.T) {
	gate := &gatedStatus{}
	f, agentID := newOutboundFixture(t, gate)
	defer f.gw.Close()

	gate.panics.Store(true)
	if resp := f.askStatus(context.Background(), agentID); resp.Status != transport.StatusServerError {
		t.Fatalf("status through a panicking transport: %d %s, want %d", resp.Status, resp.Text(), transport.StatusServerError)
	}
	gate.panics.Store(false)
	if resp := f.askStatus(context.Background(), agentID); !resp.IsOK() || resp.GetHeader("agent-state") != "travelling" {
		t.Fatalf("status after the panic: %d %s (state %q)", resp.Status, resp.Text(), resp.GetHeader("agent-state"))
	}
}
