package device

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/gateway"
	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// newSessionFixture is newFixture with the gateway's mailbox subsystem
// enabled (device sessions need somewhere to deliver from).
func newSessionFixture(t *testing.T, cfgMut func(*Config)) *fixture {
	t.Helper()
	f := &fixture{
		net:   netsim.New(2),
		queue: &netsim.Queue{},
		store: rms.NewMemStore("dev-db", 0),
	}
	f.net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, netsim.Link{Latency: 50 * time.Millisecond})
	f.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{Latency: time.Millisecond})
	kpOnce.Do(func() {
		k, err := pisec.GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
		kp = k
	})
	f.startGateway(t, nil)

	cfg := Config{
		Owner:     "test-dev",
		Transport: f.net.Transport(netsim.ZoneWireless),
		Store:     f.store,
		Codec:     compress.LZSS,
		Secure:    true,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	plat, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.SetGateways([]string{"gw-d"}); err != nil {
		t.Fatal(err)
	}
	f.plat = plat
	return f
}

// startGateway puts a fresh gateway behind "gw-d", its mailboxes in
// mailbox (nil = a store of its own). Called again over the same store
// it is a crash-restart: whatever the previous gateway held only in
// memory is gone.
func (f *fixture) startGateway(t *testing.T, mailbox rms.Store) {
	t.Helper()
	gw, err := gateway.New(gateway.Config{
		Addr:      "gw-d",
		KeyPair:   kp,
		Transport: f.net.Transport(netsim.ZoneWired),
		Spawn:     f.queue.Go,
		FuelSlice: fixtureFuel,
		Mailbox:   &gateway.MailboxConfig{Store: mailbox},
	})
	if err != nil {
		t.Fatal(err)
	}
	addEchoPackages(t, gw)
	f.gw = gw
	f.net.AddHost("gw-d", netsim.ZoneWired, gw.Handler())
}

// restartPlatform "restarts" the device: a new platform over the same
// database.
func (f *fixture) restartPlatform(t *testing.T) *Platform {
	t.Helper()
	plat, err := NewPlatform(Config{
		Owner:     "test-dev",
		Transport: f.net.Transport(netsim.ZoneWireless),
		Store:     f.store,
		Codec:     compress.LZSS,
		Secure:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

// TestSessionDeliversResultViaMailbox: the device never calls Collect —
// the result arrives through the session mailbox, exactly once.
func TestSessionDeliversResultViaMailbox(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", map[string]mavm.Value{"k": mavm.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	f.queue.Drain()

	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gateway != "gw-d" || len(s.Deliveries) != 1 {
		t.Fatalf("session = %+v", s)
	}
	d := s.Deliveries[0]
	if d.Kind != push.KindResult || d.AgentID != id || d.Result == nil || !d.Result.OK() {
		t.Fatalf("delivery = %+v", d)
	}
	echo, _ := d.Result.Get("echo")
	if echo.MapEntries()["k"].AsInt() != 7 {
		t.Fatalf("echo = %v", echo)
	}
	// The delivered journey is closed like a Collect.
	if got := f.plat.Pending(); len(got) != 0 {
		t.Fatalf("pending after delivery = %v", got)
	}
	// Exactly once: a second session delivers nothing.
	s2, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Deliveries) != 0 {
		t.Fatalf("second session redelivered: %+v", s2.Deliveries)
	}
}

// TestQueueDispatchDrainsOnReconnect: executions queued while the
// uplink is down are uploaded by the next session, and their results
// come back through the mailbox.
func TestQueueDispatchDrainsOnReconnect(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "slow"); err != nil {
		t.Fatal(err)
	}

	// Uplink down: a live dispatch fails, queueing does not (offline).
	if err := f.net.SetDown("gw-d", true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.Dispatch(ctx, "slow", nil); err == nil {
		t.Fatal("dispatch succeeded with the gateway down")
	}
	qid, err := f.plat.QueueDispatch("slow", map[string]mavm.Value{"k": mavm.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if q := f.plat.QueuedDispatches(); len(q) != 1 || q[0] != qid {
		t.Fatalf("queued = %v", q)
	}
	// A session with the uplink still down keeps the queue intact.
	if s, err := f.plat.OpenSession(ctx); err == nil {
		t.Fatalf("session succeeded offline: %+v", s)
	}
	if q := f.plat.QueuedDispatches(); len(q) != 1 {
		t.Fatalf("offline session lost the queue: %v", q)
	}

	// Reconnect: the session drains the queue...
	if err := f.net.SetDown("gw-d", false); err != nil {
		t.Fatal(err)
	}
	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dispatched) != 1 || s.QueuedLeft != 0 || len(f.plat.QueuedDispatches()) != 0 {
		t.Fatalf("drain = %+v", s)
	}
	if len(s.Deliveries) != 0 {
		t.Fatalf("a journey still travelling was delivered: %+v", s.Deliveries)
	}
	// ...and the next session delivers the result.
	f.queue.Drain()
	s2, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Deliveries) != 1 || s2.Deliveries[0].AgentID != s.Dispatched[0] {
		t.Fatalf("deliveries = %+v; first %+v", s2.Deliveries, s)
	}
}

// TestZeroHopJourneyTakesOneSession: a queued dispatch of an agent that
// finishes inside its admission is uploaded, run and delivered through
// the mailbox by ONE session — the device connects once per journey.
func TestZeroHopJourneyTakesOneSession(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.QueueDispatch("echo", map[string]mavm.Value{"k": mavm.Int(3)}); err != nil {
		t.Fatal(err)
	}
	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dispatched) != 1 || len(s.Deliveries) != 1 || s.Deliveries[0].AgentID != s.Dispatched[0] || s.Deliveries[0].Seq == 0 {
		t.Fatalf("session = %+v, want the journey uploaded and its result delivered from the mailbox", s)
	}
	if s2, err := f.plat.OpenSession(ctx); err != nil || len(s2.Deliveries) != 0 {
		t.Fatalf("second session = %+v, %v; want nothing left to deliver", s2, err)
	}
}

// TestSessionStateSurvivesPlatformRestart: cursor, session gateway and
// the offline queue live in the RMS database; a fresh platform instance
// over the same store resumes exactly where the old one stopped.
func TestSessionStateSurvivesPlatformRestart(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	for _, code := range []string{"echo", "slow"} {
		if err := f.plat.Subscribe(ctx, "gw-d", code); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.plat.Dispatch(ctx, "echo", nil); err != nil {
		t.Fatal(err)
	}
	f.queue.Drain()
	if s, err := f.plat.OpenSession(ctx); err != nil || len(s.Deliveries) != 1 {
		t.Fatalf("first session: %+v, %v", s, err)
	}
	if _, err := f.plat.QueueDispatch("slow", nil); err != nil {
		t.Fatal(err)
	}
	cursor := f.plat.Cursor("gw-d")
	if cursor == 0 {
		t.Fatal("cursor not advanced")
	}

	plat2 := f.restartPlatform(t)
	if plat2.SessionGateway() != "gw-d" || plat2.Cursor("gw-d") != cursor {
		t.Fatalf("restart lost session state: gw %q cursor %d", plat2.SessionGateway(), plat2.Cursor("gw-d"))
	}
	if q := plat2.QueuedDispatches(); len(q) != 1 {
		t.Fatalf("restart lost the offline queue: %v", q)
	}
	s, err := plat2.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The queued dispatch went out (and is still travelling); no
	// duplicate delivery of the old result (the cursor survived).
	if len(s.Dispatched) != 1 || len(s.Deliveries) != 0 {
		t.Fatalf("restarted session = %+v", s)
	}
}

// TestBackoffChargesJourneyClock: retries behind a lossy uplink charge
// the virtual clock (latency + jittered exponential backoff) instead of
// hot-looping.
func TestBackoffChargesJourneyClock(t *testing.T) {
	f := newSessionFixture(t, func(c *Config) {
		c.RetryBase = 200 * time.Millisecond
		c.RetryMax = time.Second
	})
	f.net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired,
		netsim.Link{Latency: 50 * time.Millisecond, Loss: 1.0})

	clock := netsim.NewClock()
	ctx := netsim.WithClock(context.Background(), clock)
	_, err := f.plat.roundTrip(ctx, "gw-d", &transport.Request{Path: "/pdagent/ping"})
	if err == nil || !errors.Is(err, netsim.ErrLost) {
		t.Fatalf("err = %v, want ErrLost", err)
	}
	// 3 attempts charge 3 uplink latencies plus two backoffs: the
	// first in [100ms,200ms], the second in [200ms,400ms].
	min := 3*50*time.Millisecond + 100*time.Millisecond + 200*time.Millisecond
	max := 3*(50+300)*time.Millisecond + 200*time.Millisecond + 400*time.Millisecond
	if got := clock.Now(); got < min || got > max {
		t.Fatalf("clock charged %v, want within [%v, %v]", got, min, max)
	}
}

// TestBackoffHonoursCancellation: without a virtual clock the backoff
// waits real time, and a context cancellation cuts it short instead of
// finishing the full exponential schedule.
func TestBackoffHonoursCancellation(t *testing.T) {
	f := newSessionFixture(t, func(c *Config) {
		c.RetryBase = 30 * time.Second // would block ~45s without cancellation
		c.Retries = 5
	})
	if err := f.net.SetDown("gw-d", true); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := f.plat.roundTrip(ctx, "gw-d", &transport.Request{Path: "/pdagent/ping"})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, backoff not interruptible", elapsed)
	}
}

// lossyDispatch wraps a transport and swallows the response of the
// first successful /pdagent/dispatch: the gateway processed the upload
// but the device never heard back — the classic wireless failure the
// offline queue must survive.
type lossyDispatch struct {
	inner   transport.RoundTripper
	tripped bool
}

func (l *lossyDispatch) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := l.inner.RoundTrip(ctx, addr, req)
	if err == nil && req.Path == "/pdagent/dispatch" && !l.tripped {
		l.tripped = true
		return nil, errors.New("simulated lost dispatch response")
	}
	return resp, err
}

// TestQueueDrainSurvivesLostDispatchResponse is the queue-wedge
// regression: the upload reaches the gateway but the response is lost.
// The retry re-sends the same nonce and must receive the ORIGINAL
// agent id back (idempotent dispatch), draining the queue with exactly
// one agent created — not a permanent replay refusal, not a second
// agent.
func TestQueueDrainSurvivesLostDispatchResponse(t *testing.T) {
	f := newSessionFixture(t, func(c *Config) {
		c.Transport = &lossyDispatch{inner: c.Transport}
	})
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.QueueDispatch("echo", map[string]mavm.Value{"k": mavm.Int(9)}); err != nil {
		t.Fatal(err)
	}
	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatalf("session wedged on lost response: %v", err)
	}
	if len(s.Dispatched) != 1 || s.QueuedLeft != 0 {
		t.Fatalf("drain = %+v, want 1 dispatched / 0 left", s)
	}
	if n := f.gw.Registry().NumAgents(); n != 1 {
		t.Fatalf("gateway has %d agents, want exactly 1 (retry must not double-admit)", n)
	}
	// A zero-hop journey is over when its dispatch answers, so the
	// session that uploaded it also brings its result home — one
	// connection for the whole journey, the paper's "minimum
	// connectivity" — and no later session delivers it again.
	if len(s.Deliveries) != 1 || s.Deliveries[0].AgentID != s.Dispatched[0] || !s.Deliveries[0].Result.OK() {
		t.Fatalf("uploading session's deliveries = %+v, want the result of %s", s.Deliveries, s.Dispatched[0])
	}
	if f.queue.Len() != 0 {
		t.Fatalf("%d task(s) left for a zero-hop journey", f.queue.Len())
	}
	s2, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Deliveries) != 0 {
		t.Fatalf("result delivered twice: %+v", s2.Deliveries)
	}
}

// TestResultWithoutPendingRecordStillDelivered is the lost-clone
// regression: a result arrives for a journey the device has no pending
// record of (e.g. the clone response was lost on the wireless leg).
// It must be DELIVERED — only results the device already collected
// directly are duplicates to drop.
func TestResultWithoutPendingRecordStillDelivered(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	// Make the device known to the mailbox, then file a result for an
	// agent it never recorded (the lost-clone shape).
	id, err := f.plat.Dispatch(ctx, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	f.queue.Drain()
	orphan := &wire.ResultDocument{AgentID: "ag-lost-clone", CodeID: "echo", Owner: "test-dev", Status: "done"}
	doc, err := orphan.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.gw.Mailbox().Enqueue("test-dev", push.KindResult, orphan.AgentID, "result:"+orphan.AgentID, doc); err != nil {
		t.Fatal(err)
	}

	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	agents := map[string]bool{}
	for _, d := range s.Deliveries {
		if d.Kind == push.KindResult && d.Result != nil {
			agents[d.AgentID] = true
		}
	}
	if !agents[id] || !agents["ag-lost-clone"] || len(agents) != 2 {
		t.Fatalf("deliveries = %+v, want both the dispatched result and the orphan clone result", s.Deliveries)
	}

	// The duplicate path still works: a directly collected result's
	// mailbox copy is dropped. Dispatch, complete, Collect directly,
	// then open a session — the mailbox entry for it must not deliver.
	id2, err := f.plat.Dispatch(ctx, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	f.queue.Drain()
	if _, err := f.plat.Collect(ctx, id2); err != nil {
		t.Fatal(err)
	}
	s2, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Deliveries) != 0 {
		t.Fatalf("directly collected result redelivered: %+v", s2.Deliveries)
	}
}

// TestPoisonQueuedDispatchDoesNotBlockQueue: a queued dispatch that is
// permanently rejected (its subscription secret was rotated while it
// sat in the queue) is dropped with a visible note — the dispatches
// queued behind it still go out.
func TestPoisonQueuedDispatchDoesNotBlockQueue(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	// Queue with the current secret, then rotate it (re-subscribe):
	// the queued PI's dispatch key is now permanently invalid.
	if _, err := f.plat.QueueDispatch("echo", nil); err != nil {
		t.Fatal(err)
	}
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.QueueDispatch("echo", mavmParams(3)); err != nil {
		t.Fatal(err)
	}

	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatalf("session halted on the poison entry: %v", err)
	}
	if len(s.Dispatched) != 1 || s.QueuedLeft != 0 || len(f.plat.QueuedDispatches()) != 0 {
		t.Fatalf("drain = %+v: the healthy dispatch behind the poison entry never went out", s)
	}
	var notes int
	for _, d := range s.Deliveries {
		if d.Kind == push.KindStatus && d.Result == nil {
			notes++
		}
	}
	if notes != 1 {
		t.Fatalf("rejection not surfaced: %+v", s.Deliveries)
	}
}

func mavmParams(k int64) map[string]mavm.Value {
	return map[string]mavm.Value{"k": mavm.Int(k)}
}

// TestRateLimited429KeepsQueue: a 429 (tenant over rate/quota,
// DESIGN.md §12) is a back-off signal, not a poison verdict — the
// queued dispatch must survive for the next session instead of being
// dropped like the other 4xx rejections.
func TestRateLimited429KeepsQueue(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.QueueDispatch("echo", mavmParams(9)); err != nil {
		t.Fatal(err)
	}

	// Interpose on the gateway: refuse dispatches with 429 until the
	// operator (the test) lifts the limit.
	limited := true
	inner := f.gw.Handler()
	f.net.AddHost("gw-d", netsim.ZoneWired, transport.HandlerFunc(
		func(ctx context.Context, req *transport.Request) *transport.Response {
			if limited && req.Path == "/pdagent/dispatch" {
				resp := transport.Errorf(transport.StatusTooManyRequests, "tenant over quota")
				resp.SetHeader("retry-after", "1")
				return resp
			}
			return inner.Serve(ctx, req)
		}))

	s, err := f.plat.OpenSession(ctx)
	if err == nil {
		t.Fatalf("session drained through a 429: %+v", s)
	}
	if got := f.plat.QueuedDispatches(); len(got) != 1 {
		t.Fatalf("429 dropped the queued dispatch: %v", got)
	}

	// Once the account is back under its limits the same entry drains.
	limited = false
	s, err = f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dispatched) != 1 || len(f.plat.QueuedDispatches()) != 0 {
		t.Fatalf("post-backoff drain = %+v", s)
	}
	f.queue.Drain()
}

// TestLongPollAckRidesNextRequest: a device whose agent is still
// travelling when its upload is answered long-polls for the result, and
// spends no round trip on acknowledging it — PollMailbox returns with the
// batch and the ack travels on the next request (here the next upload,
// whose result's enqueue commits it). So there is a window in which the
// device has its mail and the gateway has not been told. A gateway crash
// in that window, a device restart in it, or both, cost a re-offer that
// the cursor absorbs: the application receives nothing twice and the
// mailbox ends empty on disk.
func TestLongPollAckRidesNextRequest(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		gwRestart, devRestart bool
	}{
		{name: "no fault"},
		{name: "gateway crash-restart", gwRestart: true},
		{name: "device restart", devRestart: true},
		{name: "both", gwRestart: true, devRestart: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mbx := rms.NewMemStore("gw-mailbox", 0)
			f := newSessionFixture(t, nil)
			f.startGateway(t, mbx)
			ctx := context.Background()
			if err := f.plat.Subscribe(ctx, "gw-d", "slow"); err != nil {
				t.Fatal(err)
			}
			requests := func() int { return f.net.Stats().Messages }
			var got []string
			for j := 0; j < 2; j++ {
				id, err := f.plat.Dispatch(ctx, "slow", nil)
				if err != nil {
					t.Fatal(err)
				}
				f.queue.Drain()
				before := requests()
				ds, _, err := f.plat.PollMailbox(ctx, "gw-d", time.Second)
				if err != nil || len(ds) != 1 || ds[0].AgentID != id {
					t.Fatalf("journey %d: long-poll delivered %+v, %v", j, ds, err)
				}
				if n := requests() - before; n != 1 {
					t.Fatalf("journey %d: delivery took %d requests, want 1", j, n)
				}
				got = append(got, id)
			}
			// The second upload carried ack=1 and its result's enqueue
			// committed it; the device holds entry 2 and has told nobody.
			hub := f.gw.Mailbox()
			if st := hub.Stats(); st.AcksFolded != 1 || st.StagedAcks != 0 || st.Pending != 1 || f.plat.Cursor("gw-d") != 2 {
				t.Fatalf("before the fault: %+v, device cursor %d", st, f.plat.Cursor("gw-d"))
			}
			if n, _ := mbx.NumRecords(); n != 2 {
				t.Fatalf("mailbox store holds %d records, want entry 2 and the meta", n)
			}

			if tc.gwRestart {
				f.startGateway(t, mbx)
				hub = f.gw.Mailbox()
				if n := hub.Pending("test-dev"); n != 1 {
					t.Fatalf("restarted gateway re-offers %d entries, want entry 2", n)
				}
			}
			plat := f.plat
			if tc.devRestart {
				plat = f.restartPlatform(t)
			}
			// Next contact, both ways a device makes it: a long-poll that
			// finds nothing new, then a session.
			ds, _, err := plat.PollMailbox(ctx, "gw-d", 5*time.Millisecond)
			if err != nil || len(ds) != 0 {
				t.Fatalf("long-poll after the fault delivered %+v, %v; the application already has %v", ds, err, got)
			}
			s, err := plat.OpenSession(ctx)
			if err != nil || len(s.Deliveries) != 0 {
				t.Fatalf("session after the fault delivered %+v, %v; the application already has %v", s, err, got)
			}
			if st := hub.Stats(); st.Pending != 0 || st.StagedAcks != 0 {
				t.Fatalf("mailbox not empty at the end: %+v", st)
			}
			if n, _ := mbx.NumRecords(); n != 1 {
				t.Fatalf("mailbox store holds %d records at the end, want the meta record alone", n)
			}
		})
	}
}

// restartAfterRead wraps a device's transport and calls restart once,
// right after the device's n-th mailbox read is answered.
type restartAfterRead struct {
	inner   transport.RoundTripper
	n       int
	reads   int
	restart func()
}

func (r *restartAfterRead) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := r.inner.RoundTrip(ctx, addr, req)
	if strings.HasPrefix(req.Path, "/pdagent/mailbox") {
		if r.reads++; r.reads == r.n {
			r.restart()
		}
	}
	return resp, err
}

// mailboxRecords reads a gateway's mailbox store as a restart would:
// how many entry and meta records it holds, and the event ids its
// mb-seen records seal.
func mailboxRecords(t *testing.T, store rms.Store) (entries, metas int, sealed map[string]bool) {
	t.Helper()
	sealed = map[string]bool{}
	ids, err := store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		data, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		root, err := kxml.ParseBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		switch root.Name {
		case "mb-entry":
			entries++
		case "mb-meta":
			metas++
		case "mb-seen":
			for _, e := range root.FindAll("e") {
				sealed[e.TextContent()] = true
			}
		default:
			t.Fatalf("record %d is an unknown %s", id, root.Name)
		}
	}
	return entries, metas, sealed
}

// TestSessionDrainAcrossGatewayRestart: a session drains a mailbox
// bigger than one batch over the one mailbox read, and the gateway
// crash-restarts between its rounds — after the read that staged the
// first batch's ack and took the second batch, before anything
// committed that ack. The restarted gateway re-offers the whole mailbox;
// the drain's next read acknowledges it again (every re-offered entry is
// behind the device's cursor), finds nothing more and commits. The
// application receives each entry once.
func TestSessionDrainAcrossGatewayRestart(t *testing.T) {
	const total = 40 // more than one batch of the gateway's default 32
	mbx := rms.NewMemStore("gw-mailbox", 0)
	tap := &restartAfterRead{n: 2}
	f := newSessionFixture(t, func(c *Config) { tap.inner, c.Transport = c.Transport, tap })
	f.startGateway(t, mbx)
	tap.restart = func() {
		f.startGateway(t, mbx)
		if n := f.gw.Mailbox().Pending("test-dev"); n != total {
			t.Errorf("restarted gateway re-offers %d entries, want all %d: the first batch's ack was staged, not committed", n, total)
		}
	}
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", nil) // mints the token; its result is entry 1
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= total; i++ {
		note := fmt.Sprint("note-", i)
		if _, _, err := f.gw.Mailbox().Enqueue("test-dev", push.KindManage, id, note, []byte(note)); err != nil {
			t.Fatal(err)
		}
	}

	s, err := f.plat.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tap.reads != 3 {
		t.Fatalf("the drain took %d mailbox reads, want 3: a batch, the rest, the empty read", tap.reads)
	}
	seen := map[uint64]bool{}
	for _, d := range s.Deliveries {
		if seen[d.Seq] {
			t.Fatalf("entry %d delivered twice", d.Seq)
		}
		seen[d.Seq] = true
	}
	if len(seen) != total || f.plat.Cursor("gw-d") != total || len(f.plat.Pending()) != 0 {
		t.Fatalf("%d entries delivered, cursor %d, pending %v; want %d, %d, none", len(seen), f.plat.Cursor("gw-d"), f.plat.Pending(), total, total)
	}
	// The restarted gateway heard every entry acknowledged again, by the
	// drain's last read, and committed that ack.
	if st := f.gw.Mailbox().Stats(); st.Delivered != total || st.Pending != 0 || st.StagedAcks != 0 || st.AcksFlushed != 1 {
		t.Fatalf("restarted gateway: %+v; want all %d entries re-acked, one commit", st, total)
	}
	// No entry is left on disk; all 40 event ids are sealed in the
	// gateway's mb-seen records (eight each), none in the meta's tail.
	want := map[string]bool{"result:" + id: true}
	for i := 2; i <= total; i++ {
		want[fmt.Sprint("note-", i)] = true
	}
	if entries, metas, sealed := mailboxRecords(t, mbx); entries != 0 || metas != 1 || !maps.Equal(sealed, want) {
		t.Fatalf("mailbox store holds %d entries, %d metas and mb-seen records of %v; want none, 1 and %v", entries, metas, sealed, want)
	}
	if s, err := f.plat.OpenSession(ctx); err != nil || len(s.Deliveries) != 0 {
		t.Fatalf("a second session delivered %+v, %v", s, err)
	}
}

// preFrameGateway stands in for a gateway from before mailbox answers
// were framed: every mailbox answer — polled, or attached to a dispatch
// answer — reaches the device as the raw XML such a gateway sent, bodies
// escaped as text (a token-less export with nothing evicted is that
// answer byte for byte).
type preFrameGateway struct {
	inner transport.RoundTripper
	raw   int // answers rewritten
}

func (g *preFrameGateway) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := g.inner.RoundTrip(ctx, addr, req)
	if err != nil || !resp.IsOK() || !compress.IsFrame(resp.Body) {
		return resp, err
	}
	dev, entries, watermark, evicted, _, _, err := push.ParseEntries(resp.Body)
	if err != nil || evicted != 0 {
		return nil, fmt.Errorf("answer to %s: evicted %d, %v", req.Path, evicted, err)
	}
	resp.Body = push.EncodeExport(dev, entries, watermark, "", "")
	g.raw++
	return resp, nil
}

// TestPreFrameGatewayAnswersStillParse: against a gateway that answers
// raw XML, a long-polled result and a result attached to the dispatch
// answer are both delivered, once each.
func TestPreFrameGatewayAnswersStillParse(t *testing.T) {
	gw := &preFrameGateway{}
	f := newSessionFixture(t, func(c *Config) { gw.inner, c.Transport = c.Transport, gw })
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	// The first journey long-polls (its upload holds no token yet); the
	// second is answered in its dispatch.
	for j := int64(0); j < 2; j++ {
		echoJourney(t, f, f.plat, j)
	}
	if gw.raw != 2 || f.plat.Cursor("gw-d") != 2 {
		t.Fatalf("%d raw answer(s), cursor %d; want a poll answer and a dispatch answer, cursor 2", gw.raw, f.plat.Cursor("gw-d"))
	}
}

// codecGateway passes a device's requests through and counts the codec
// of every framed answer that reaches it. With stripAccept it stands in
// for a gateway built before devices sent accept — the request arrives
// without it, so the answer is the plain DEFLATE frame (codec 2) — and
// with lzss as well for one older still, whose answers were LZSS frames.
type codecGateway struct {
	inner       transport.RoundTripper
	stripAccept bool
	lzss        bool
	got         map[compress.Codec]int
}

func (g *codecGateway) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if g.stripAccept {
		r := *req
		r.Header = maps.Clone(req.Header)
		delete(r.Header, "accept")
		req = &r
	}
	resp, err := g.inner.RoundTrip(ctx, addr, req)
	if err != nil || !resp.IsOK() || !compress.IsFrame(resp.Body) {
		return resp, err
	}
	if g.lzss {
		doc, err := compress.Decode(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.Body, err = compress.Encode(compress.LZSS, doc); err != nil {
			return nil, err
		}
	}
	c, err := compress.FrameCodec(resp.Body)
	if err != nil {
		return nil, err
	}
	g.got[c]++
	return resp, nil
}

// TestAcceptIgnoringGatewayAnswersStillParse: a device sends accept: 3
// on its mailbox reads and on the dispatch that asks for mail, and gets
// codec-3 answers; against a gateway that ignores the header (codec 2),
// or answers LZSS, a long-polled result and a result attached to the
// dispatch answer are still delivered, once each.
func TestAcceptIgnoringGatewayAnswersStillParse(t *testing.T) {
	for _, tc := range []struct {
		name              string
		stripAccept, lzss bool
		want              compress.Codec
	}{
		{"accept honoured", false, false, compress.FlateDict},
		{"accept ignored", true, false, compress.Flate},
		{"lzss gateway", true, true, compress.LZSS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw := &codecGateway{stripAccept: tc.stripAccept, lzss: tc.lzss, got: map[compress.Codec]int{}}
			f := newSessionFixture(t, func(c *Config) { gw.inner, c.Transport = c.Transport, gw })
			ctx := context.Background()
			if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
				t.Fatal(err)
			}
			// The first journey long-polls (its upload holds no token
			// yet); the second is answered in its dispatch.
			for j := int64(0); j < 2; j++ {
				echoJourney(t, f, f.plat, j)
			}
			if len(gw.got) != 1 || gw.got[tc.want] != 2 || f.plat.Cursor("gw-d") != 2 {
				t.Fatalf("framed answers by codec %v, cursor %d; want a poll answer and a dispatch answer in %v, cursor 2", gw.got, f.plat.Cursor("gw-d"), tc.want)
			}
		})
	}
}

// uploadCodecs passes a device's requests through and records the
// frame codec of every dispatch body it uploads, opening a sealed one
// with the fixture key.
type uploadCodecs struct {
	inner transport.RoundTripper
	got   []compress.Codec
}

func (u *uploadCodecs) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := u.inner.RoundTrip(ctx, addr, req)
	if req.Path != "/pdagent/dispatch" {
		return resp, err
	}
	frame := req.Body
	if !compress.IsFrame(frame) {
		if frame, err = pisec.AppendOpen(nil, kp, req.Body); err != nil {
			return nil, err
		}
	}
	c, err := compress.FrameCodec(frame)
	if err != nil {
		return nil, err
	}
	u.got = append(u.got, c)
	return resp, nil
}

// echoJourney dispatches one echo journey and long-polls its result.
func echoJourney(t *testing.T, f *fixture, plat *Platform, j int64) {
	t.Helper()
	ctx := context.Background()
	id, err := plat.Dispatch(ctx, "echo", mavmParams(j))
	if err != nil {
		t.Fatal(err)
	}
	f.queue.Drain()
	ds, _, err := plat.PollMailbox(ctx, "gw-d", time.Second)
	if err != nil || len(ds) != 1 || ds[0].AgentID != id || ds[0].Result == nil || !ds[0].Result.OK() {
		t.Fatalf("journey %d delivered %+v, %v; want the result of %s", j, ds, err, id)
	}
}

// TestUploadCodecFollowsMailboxAnswers: a device's first upload to a
// gateway is in Config.Codec; once a mailbox answer from it was a
// codec-3 frame, its uploads are codec 3 too, plain or sealed. A
// gateway that answers codec 2, LZSS or raw pre-frame XML gets
// Config.Codec throughout.
func TestUploadCodecFollowsMailboxAnswers(t *testing.T) {
	const lz, dict = compress.LZSS, compress.FlateDict
	for _, tc := range []struct {
		name   string
		plain  bool
		answer func(inner transport.RoundTripper) transport.RoundTripper
		want   []compress.Codec
	}{
		{"codec 3 sealed", false, func(rt transport.RoundTripper) transport.RoundTripper {
			return &codecGateway{inner: rt, got: map[compress.Codec]int{}}
		}, []compress.Codec{lz, dict, dict}},
		{"codec 3 plain", true, func(rt transport.RoundTripper) transport.RoundTripper {
			return &codecGateway{inner: rt, got: map[compress.Codec]int{}}
		}, []compress.Codec{lz, dict, dict}},
		{"codec 2", false, func(rt transport.RoundTripper) transport.RoundTripper {
			return &codecGateway{inner: rt, stripAccept: true, got: map[compress.Codec]int{}}
		}, []compress.Codec{lz, lz, lz}},
		{"lzss", false, func(rt transport.RoundTripper) transport.RoundTripper {
			return &codecGateway{inner: rt, stripAccept: true, lzss: true, got: map[compress.Codec]int{}}
		}, []compress.Codec{lz, lz, lz}},
		{"pre-frame", false, func(rt transport.RoundTripper) transport.RoundTripper {
			return &preFrameGateway{inner: rt}
		}, []compress.Codec{lz, lz, lz}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			up := &uploadCodecs{}
			f := newSessionFixture(t, func(c *Config) {
				up.inner, c.Transport, c.Secure = tc.answer(c.Transport), up, !tc.plain
			})
			if err := f.plat.Subscribe(context.Background(), "gw-d", "echo"); err != nil {
				t.Fatal(err)
			}
			// The first journey long-polls; the later ones are answered
			// in their dispatch.
			for j := int64(0); j < 3; j++ {
				echoJourney(t, f, f.plat, j)
			}
			if !slices.Equal(up.got, tc.want) {
				t.Fatalf("uploads in %v, want %v", up.got, tc.want)
			}
		})
	}
}

// TestUploadCodecFallsBackWhenAnswersChange: a gateway that answered
// codec 3 and then answers codec 2 — on mail attached to a dispatch
// answer, or on a session's drain — gets Config.Codec again, and codec
// 3 once it answers in it again.
func TestUploadCodecFallsBackWhenAnswersChange(t *testing.T) {
	up := &uploadCodecs{}
	gw := &codecGateway{got: map[compress.Codec]int{}}
	f := newSessionFixture(t, func(c *Config) { gw.inner, up.inner, c.Transport = c.Transport, gw, up })
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	echoJourney(t, f, f.plat, 0) // codec 3 poll answer
	echoJourney(t, f, f.plat, 1) // codec 3 upload, codec 3 mail on its answer
	gw.stripAccept = true
	echoJourney(t, f, f.plat, 2) // codec 3 upload, codec 2 mail on its answer
	echoJourney(t, f, f.plat, 3) // LZSS upload, codec 2 mail
	gw.stripAccept = false
	echoJourney(t, f, f.plat, 4) // LZSS upload, codec 3 mail
	gw.stripAccept = true
	if _, _, err := f.plat.PollMailbox(ctx, "gw-d", 0); err != nil { // codec 2 empty drain
		t.Fatal(err)
	}
	echoJourney(t, f, f.plat, 5) // LZSS upload
	const lz, dict = compress.LZSS, compress.FlateDict
	if want := []compress.Codec{lz, dict, dict, lz, lz, lz}; !slices.Equal(up.got, want) {
		t.Fatalf("uploads in %v, want %v", up.got, want)
	}
}

// TestUploadCodecAfterRestart: a restarted device knows nothing of the
// gateway's codec: its first upload is in Config.Codec, and the codec-3
// mail attached to that upload's answer — no poll in between — makes
// the next one codec 3.
func TestUploadCodecAfterRestart(t *testing.T) {
	f := newSessionFixture(t, nil)
	if err := f.plat.Subscribe(context.Background(), "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	echoJourney(t, f, f.plat, 0) // the device now holds its token
	up := &uploadCodecs{inner: f.net.Transport(netsim.ZoneWireless)}
	plat, err := NewPlatform(Config{Owner: "test-dev", Transport: up, Store: f.store, Codec: compress.LZSS, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	echoJourney(t, f, plat, 1)
	echoJourney(t, f, plat, 2)
	if want := []compress.Codec{compress.LZSS, compress.FlateDict}; !slices.Equal(up.got, want) {
		t.Fatalf("uploads in %v, want %v", up.got, want)
	}
}

// TestUploadCodecReSend: the re-send after a 412 (a stale code hash) is
// framed like the upload it repeats — codec 3 to a gateway that
// answered in codec 3 — and the journey completes.
func TestUploadCodecReSend(t *testing.T) {
	up := &uploadCodecs{}
	f := newSessionFixture(t, func(c *Config) { up.inner, c.Transport = c.Transport, up })
	if err := f.plat.Subscribe(context.Background(), "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	echoJourney(t, f, f.plat, 0)
	if err := f.gw.AddCodePackage(&wire.CodePackage{CodeID: "echo", Name: "echo", Version: "2", Source: `deliver("v", 2);`}); err != nil {
		t.Fatal(err)
	}
	echoJourney(t, f, f.plat, 1)
	if want := []compress.Codec{compress.LZSS, compress.FlateDict, compress.FlateDict}; !slices.Equal(up.got, want) {
		t.Fatalf("uploads in %v, want the first in LZSS, the reference and its re-send in codec 3", up.got)
	}
}

// TestUploadCodecDefaultsToLZSS: a Platform built without a Codec
// stores LZSS-framed records and uploads an LZSS frame, not the
// uncompressed zero codec.
func TestUploadCodecDefaultsToLZSS(t *testing.T) {
	up := &uploadCodecs{}
	f := newFixture(t, func(c *Config) { up.inner, c.Transport, c.Codec = c.Transport, up, 0 })
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.Dispatch(ctx, "echo", mavmParams(1)); err != nil {
		t.Fatal(err)
	}
	ids, err := f.store.IDs()
	if err != nil || len(ids) == 0 {
		t.Fatalf("store holds %v, %v; want the subscription and the pending journey", ids, err)
	}
	for _, id := range ids {
		rec, err := f.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := compress.FrameCodec(rec); err != nil || c != compress.LZSS {
			t.Fatalf("record %d framed as %v, %v; want LZSS", id, c, err)
		}
	}
	if want := []compress.Codec{compress.LZSS}; !slices.Equal(up.got, want) {
		t.Fatalf("uploads in %v, want %v", up.got, want)
	}
}

// downlinkTap wraps a device's transport: it counts the requests the
// device makes and notes every mailbox entry that reaches it (on a
// mailbox answer or attached to a dispatch answer). Beneath it sits a
// lossyDispatch, disarmed until a test clears its tripped flag.
type downlinkTap struct {
	lossy    lossyDispatch
	requests int
	attached int      // dispatch answers that carried mail
	seqs     []uint64 // mailbox entries received, in arrival order
}

func (d *downlinkTap) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	d.requests++
	resp, err := d.lossy.RoundTrip(ctx, addr, req)
	if err != nil || !resp.IsOK() {
		return resp, err
	}
	if _, entries, _, _, _, _, perr := push.ParseEntries(resp.Body); perr == nil {
		if req.Path == "/pdagent/dispatch" {
			d.attached++
		}
		for _, e := range entries {
			d.seqs = append(d.seqs, e.Seq)
		}
	}
	return resp, nil
}

// newTappedFixture is a session fixture whose gateway keeps its
// mailboxes in the returned store and whose device talks through the
// returned tap, one echo journey (dispatch + long-poll: the device now
// holds its mailbox token and cursor 1) already behind it.
func newTappedFixture(t *testing.T) (*fixture, *downlinkTap, *rms.MemStore) {
	t.Helper()
	tap := &downlinkTap{}
	f := newSessionFixture(t, func(c *Config) {
		tap.lossy = lossyDispatch{inner: c.Transport, tripped: true}
		c.Transport = tap
	})
	mbx := rms.NewMemStore("gw-mailbox", 0)
	f.startGateway(t, mbx)
	ctx := context.Background()
	for _, code := range []string{"echo", "slow"} {
		if err := f.plat.Subscribe(ctx, "gw-d", code); err != nil {
			t.Fatal(err)
		}
	}
	id, err := f.plat.Dispatch(ctx, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds, _, err := f.plat.PollMailbox(ctx, "gw-d", time.Second); err != nil || len(ds) != 1 || ds[0].AgentID != id {
		t.Fatalf("first journey: long-poll delivered %+v, %v", ds, err)
	}
	if tap.attached != 0 || f.plat.Cursor("gw-d") != 1 {
		t.Fatalf("first journey: %d dispatch answer(s) carried mail, cursor %d; a token-less upload asks for none", tap.attached, f.plat.Cursor("gw-d"))
	}
	return f, tap, mbx
}

// TestZeroHopJourneyTakesOneRequest is TestZeroHopJourneyTakesOneSession
// for a device that is online: once it holds its mailbox token, the
// upload's answer is the delivery — PollMailbox hands the result out
// without a request of its own, and the previous journey's ack shared the
// result's commit.
func TestZeroHopJourneyTakesOneRequest(t *testing.T) {
	f, tap, mbx := newTappedFixture(t)
	ctx := context.Background()
	before := tap.requests
	id, err := f.plat.Dispatch(ctx, "echo", mavmParams(3))
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := f.plat.PollMailbox(ctx, "gw-d", time.Second)
	if err != nil || len(ds) != 1 || ds[0].AgentID != id || ds[0].Seq != 2 || !ds[0].Result.OK() {
		t.Fatalf("delivered %+v, %v; want the result of %s as entry 2", ds, err, id)
	}
	if n := tap.requests - before; n != 1 || tap.attached != 1 {
		t.Fatalf("the journey took %d request(s), %d answer(s) carried mail; want 1 and 1", n, tap.attached)
	}
	if st := f.gw.Mailbox().Stats(); st.AcksFolded != 1 || st.AcksFlushed != 0 || st.StagedAcks != 0 {
		t.Fatalf("ack of entry 1: %+v; want it folded into entry 2's commit", st)
	}
	if n, _ := mbx.NumRecords(); n != 2 || f.plat.Cursor("gw-d") != 2 || len(f.plat.Pending()) != 0 {
		t.Fatalf("%d mailbox record(s), cursor %d, pending %v; want entry 2 and the meta, 2, none", n, f.plat.Cursor("gw-d"), f.plat.Pending())
	}
}

// TestDispatchAnswerCarriesMail is the crash/loss matrix of the
// answered-in-the-dispatch delivery. The batch an answer carries stays
// unprocessed until PollMailbox, so every fault lands where a long-poll's
// would: the cursor has not moved, the entry is offered again, and the
// application receives each result once.
func TestDispatchAnswerCarriesMail(t *testing.T) {
	for _, fault := range []string{"none", "answer lost", "device restart", "gateway restart, staged ack lost"} {
		t.Run(fault, func(t *testing.T) {
			f, tap, mbx := newTappedFixture(t)
			ctx := context.Background()
			plat, hub := f.plat, f.gw.Mailbox()
			if fault == "answer lost" {
				tap.lossy.tripped = false // the next dispatch answer is swallowed
			}
			id, err := plat.Dispatch(ctx, "echo", nil)
			if err != nil {
				t.Fatal(err)
			}
			if fault == "device restart" {
				// The unread batch dies with the process; the cursor it
				// would have moved is still 1.
				plat = f.restartPlatform(t)
			}
			before := tap.requests
			var lost string // a journey the restarted gateway no longer knows
			ds, _, err := plat.PollMailbox(ctx, "gw-d", time.Second)
			if err != nil || len(ds) != 1 || ds[0].AgentID != id {
				t.Fatalf("delivered %+v, %v; want the result of %s once", ds, err, id)
			}
			switch fault {
			case "answer lost":
				// The retry answered idempotently, mail-less; the long-poll
				// fetched what the lost answer had carried.
				if tap.attached != 0 || tap.requests-before != 1 {
					t.Fatalf("%d answer(s) carried mail, the poll took %d request(s); want 0 and 1", tap.attached, tap.requests-before)
				}
			case "device restart":
				if n := hub.Stats().Delivered; n != 1 {
					t.Fatalf("%d entries retired, want entry 2 still owed its ack", n)
				}
			default:
				if tap.attached != 1 || tap.requests != before {
					t.Fatalf("%d answer(s) carried mail, the poll took %d request(s); want 1 and 0", tap.attached, tap.requests-before)
				}
			}
			if fault == "gateway restart, staged ack lost" {
				// An upload whose agent travels carries ack=2 and commits
				// nothing; the gateway dies (the journal-less fixture's
				// travelling agent with it) before anything else does.
				if lost, err = plat.Dispatch(ctx, "slow", nil); err != nil {
					t.Fatal(err)
				}
				if st := hub.Stats(); st.StagedAcks != 1 || st.Pending != 0 {
					t.Fatalf("before the crash: %+v, want ack 2 staged", st)
				}
				f.startGateway(t, mbx)
				hub = f.gw.Mailbox()
				if n := hub.Pending("test-dev"); n != 1 {
					t.Fatalf("restarted gateway re-offers %d entries, want entry 2", n)
				}
			}
			// Whatever happened, the next contacts deliver nothing again and
			// leave the mailbox empty on disk. A journey lost with the
			// gateway is closed by the session's repair collect (404), with
			// one status note.
			if ds, _, err := plat.PollMailbox(ctx, "gw-d", 5*time.Millisecond); err != nil || len(ds) != 0 {
				t.Fatalf("long-poll afterwards delivered %+v, %v", ds, err)
			}
			s, err := plat.OpenSession(ctx)
			if err != nil || (lost == "" && len(s.Deliveries) != 0) ||
				(lost != "" && (len(s.Deliveries) != 1 || s.Deliveries[0].Kind != push.KindStatus || s.Deliveries[0].AgentID != lost)) {
				t.Fatalf("session afterwards delivered %+v, %v", s, err)
			}
			if s, err := plat.OpenSession(ctx); err != nil || len(s.Deliveries) != 0 || len(plat.Pending()) != 0 {
				t.Fatalf("second session delivered %+v, %v, with %v pending", s, err, plat.Pending())
			}
			if st := hub.Stats(); st.Pending != 0 || st.StagedAcks != 0 {
				t.Fatalf("mailbox not empty at the end: %+v", st)
			}
			if n, _ := mbx.NumRecords(); n != 1 {
				t.Fatalf("mailbox store holds %d records at the end, want the meta record alone", n)
			}
		})
	}
}

// TestBackToBackDispatchesAttachOneBatch: a device that uploads four
// executions in a row and then opens a session asks for its mail once —
// while the first answer's batch is unread the later uploads present
// neither token nor cursor, so no entry crosses the downlink twice — and
// the session costs the requests it always did.
func TestBackToBackDispatchesAttachOneBatch(t *testing.T) {
	f, tap, _ := newTappedFixture(t)
	ctx := context.Background()
	before, seen := tap.requests, len(tap.seqs)
	want := map[string]bool{}
	for i := 0; i < 4; i++ {
		id, err := f.plat.Dispatch(ctx, "echo", mavmParams(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
	}
	s, err := f.plat.OpenSession(ctx)
	if err != nil || len(s.Deliveries) != 4 {
		t.Fatalf("session = %+v, %v; want the four results", s, err)
	}
	for _, d := range s.Deliveries {
		if !want[d.AgentID] || d.Result == nil {
			t.Fatalf("unexpected or repeated delivery %+v", d)
		}
		delete(want, d.AgentID)
	}
	if tap.attached != 1 {
		t.Fatalf("%d dispatch answers carried mail, want only the first", tap.attached)
	}
	for i, seq := range tap.seqs[seen:] {
		if seq != uint64(2+i) {
			t.Fatalf("downlink carried entries %v after the first journey, want 2..5 once each", tap.seqs[seen:])
		}
	}
	// Four uploads, a fetch for what the first answer did not carry, and
	// the empty fetch that commits the last ack: what a device that never
	// asks on an upload spends.
	if n := tap.requests - before; n != 6 {
		t.Fatalf("the cycle took %d requests, want 6", n)
	}
	if st := f.gw.Mailbox().Stats(); st.Pending != 0 || st.StagedAcks != 0 {
		t.Fatalf("mailbox not empty after the session: %+v", st)
	}
}

// TestStaleTokenGetsFreshOneAndNoMail: a gateway that lost a volatile
// mailbox store no longer knows the token the device presents. It answers
// as it answers a device that presents none — the current token stamped,
// no ack applied, no mail — and the device's next session runs on the
// new token.
func TestStaleTokenGetsFreshOneAndNoMail(t *testing.T) {
	f, tap, _ := newTappedFixture(t)
	ctx := context.Background()
	f.startGateway(t, nil) // registry and mailboxes gone
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := f.gw.Mailbox()
	if st := hub.Stats(); tap.attached != 0 || st.Delivered != 0 || st.StagedAcks != 0 || st.Pending != 1 {
		t.Fatalf("%d answer(s) carried mail, hub %+v; want the stale token to read and retire nothing", tap.attached, st)
	}
	f.plat.mu.Lock()
	tok := f.plat.tokens["gw-d"]
	f.plat.mu.Unlock()
	if tok == "" || tok != hub.TokenOf("test-dev") {
		t.Fatalf("device holds token %q, gateway minted %q", tok, hub.TokenOf("test-dev"))
	}
	s, err := f.plat.OpenSession(ctx)
	if err != nil || len(s.Deliveries) != 1 || s.Deliveries[0].AgentID != id {
		t.Fatalf("session = %+v, %v; want the result of %s", s, err, id)
	}
}

// TestTokenlessDispatchGetsPlainAnswer: a device holding no mailbox
// token for the gateway it uploads to asks for no mail. It gets the
// plain answer — the agent id — and collects directly, as it always did.
func TestTokenlessDispatchGetsPlainAnswer(t *testing.T) {
	tap := &downlinkTap{}
	f := newSessionFixture(t, func(c *Config) {
		tap.lossy = lossyDispatch{inner: c.Transport, tripped: true}
		c.Transport = tap
	})
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", mavmParams(5))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := f.gw.Registry().Agent(id); !ok || !st.Done || tap.attached != 0 {
		t.Fatalf("dispatch returned %q: registry %+v, %d answer(s) carried mail", id, st, tap.attached)
	}
	if rd, err := f.plat.Collect(ctx, id); err != nil || !rd.OK() {
		t.Fatalf("collect = %+v, %v", rd, err)
	}
}

// TestCollectOnlyDeviceMailboxBounded: every gateway keeps a mailbox for
// every device that dispatches, so a device that only ever collects
// directly and never reads its mail leaves its results there. The
// per-device quota bounds what it leaves, and the direct collects are
// not disturbed by the evictions.
func TestCollectOnlyDeviceMailboxBounded(t *testing.T) {
	f := newSessionFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	const journeys = 300
	for i := 0; i < journeys; i++ {
		id, err := f.plat.Dispatch(ctx, "echo", mavmParams(int64(i)))
		if err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
		if rd, err := f.plat.Collect(ctx, id); err != nil || !rd.OK() {
			t.Fatalf("collect %d (%s) = %+v, %v", i, id, rd, err)
		}
	}
	if n := f.gw.Mailbox().Pending("test-dev"); n > push.DefaultQuota {
		t.Fatalf("%d entries pending after %d collected journeys, want at most %d", n, journeys, push.DefaultQuota)
	}
}

// TestUnreadBatchBehindCursorIsSkipped: a long-poll running beside the
// upload can be handed, and process, entries the upload's answer carried
// too. What the cursor has passed by the time PollMailbox takes the
// unread batch is not delivered again.
func TestUnreadBatchBehindCursorIsSkipped(t *testing.T) {
	f, tap, _ := newTappedFixture(t)
	ctx := context.Background()
	note := func(seq uint64) *push.Entry {
		return &push.Entry{Seq: seq, Kind: push.KindManage, AgentID: "ag-x", Body: []byte("note")}
	}
	for seq := uint64(2); seq <= 4; seq++ {
		if got, _, err := f.gw.Mailbox().Enqueue("test-dev", push.KindManage, "ag-x", "", []byte("note")); err != nil || got != seq {
			t.Fatalf("enqueue = seq %d, %v; want %d", got, err, seq)
		}
	}
	f.plat.mu.Lock()
	f.plat.cursors["gw-d"] = 3
	f.plat.unread["gw-d"] = &mailBatch{entries: []*push.Entry{note(2), note(3), note(4)}, watermark: 4}
	f.plat.mu.Unlock()
	before := tap.requests
	ds, _, err := f.plat.PollMailbox(ctx, "gw-d", time.Second)
	if err != nil || len(ds) != 1 || ds[0].Seq != 4 || tap.requests != before || f.plat.Cursor("gw-d") != 4 {
		t.Fatalf("delivered %+v, %v, cursor %d after %d request(s); want entry 4 alone, no request", ds, err, f.plat.Cursor("gw-d"), tap.requests-before)
	}
	f.plat.mu.Lock()
	f.plat.unread["gw-d"] = &mailBatch{entries: []*push.Entry{note(4)}, watermark: 4}
	f.plat.mu.Unlock()
	if ds, _, err := f.plat.PollMailbox(ctx, "gw-d", time.Millisecond); err != nil || len(ds) != 0 || tap.requests != before+1 {
		t.Fatalf("a batch wholly behind the cursor delivered %+v, %v after %d request(s); want it dropped and one long-poll", ds, err, tap.requests-before)
	}
}

// TestCollectAfterMailDelivery: a journey whose result a dispatch
// answer's mail delivered is over on the device; collecting it says so
// instead of calling the agent unknown.
func TestCollectAfterMailDelivery(t *testing.T) {
	f, _, _ := newTappedFixture(t)
	ctx := context.Background()
	id, err := f.plat.Dispatch(ctx, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds := f.plat.ReadHeldMail(); len(ds) != 1 || ds[0].AgentID != id || ds[0].Result == nil {
		t.Fatalf("held mail delivered %+v, want the result of %s", ds, id)
	}
	if _, err := f.plat.Collect(ctx, id); !errors.Is(err, ErrDelivered) {
		t.Fatalf("collect after delivery: %v, want ErrDelivered", err)
	}
	if _, err := f.plat.Collect(ctx, "ag-never"); err == nil || errors.Is(err, ErrDelivered) {
		t.Fatalf("collect of a journey never dispatched: %v, want unknown agent", err)
	}
}

// TestRepairCollectClosesUnknownJourney: a journey the gateway no
// longer knows (here lost with a journal-less restart; a journey
// retired past the gateway's cap answers the same 404) is closed by the
// session's repair collect with one status note, and later sessions
// stop probing it. A mailbox copy of its result arriving afterwards is
// still delivered.
func TestRepairCollectClosesUnknownJourney(t *testing.T) {
	f, tap, mbx := newTappedFixture(t)
	ctx := context.Background()
	lost, err := f.plat.Dispatch(ctx, "slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	f.startGateway(t, mbx)
	s, err := f.plat.OpenSession(ctx)
	if err != nil || len(s.Deliveries) != 1 || s.Deliveries[0].Kind != push.KindStatus || s.Deliveries[0].AgentID != lost {
		t.Fatalf("session delivered %+v, %v; want one status note for %s", s, err, lost)
	}
	if p := f.plat.Pending(); len(p) != 0 {
		t.Fatalf("%v still pending", p)
	}
	before := tap.requests
	if s, err := f.plat.OpenSession(ctx); err != nil || len(s.Deliveries) != 0 || tap.requests-before != 1 {
		t.Fatalf("next session delivered %+v, %v in %d request(s); want nothing in the poll alone", s, err, tap.requests-before)
	}
	doc, err := (&wire.ResultDocument{AgentID: lost, CodeID: "slow", Owner: "test-dev", Status: "done"}).EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.gw.Mailbox().Enqueue("test-dev", push.KindResult, lost, "result:"+lost, doc); err != nil {
		t.Fatal(err)
	}
	if s, err := f.plat.OpenSession(ctx); err != nil || len(s.Deliveries) != 1 || s.Deliveries[0].Result == nil || s.Deliveries[0].AgentID != lost {
		t.Fatalf("late mail delivered %+v, %v; want the result of %s", s, err, lost)
	}
}
