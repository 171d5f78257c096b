package device

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/gateway"
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
		id, err := f.plat.Dispatch(ctx, "echo", mavmParams(j))
		if err != nil {
			t.Fatal(err)
		}
		f.queue.Drain()
		ds, _, err := f.plat.PollMailbox(ctx, "gw-d", time.Second)
		if err != nil || len(ds) != 1 || ds[0].AgentID != id || ds[0].Result == nil || !ds[0].Result.OK() {
			t.Fatalf("journey %d delivered %+v, %v; want the result of %s", j, ds, err, id)
		}
	}
	if gw.raw != 2 || f.plat.Cursor("gw-d") != 2 {
		t.Fatalf("%d raw answer(s), cursor %d; want a poll answer and a dispatch answer, cursor 2", gw.raw, f.plat.Cursor("gw-d"))
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
				if _, err := plat.Dispatch(ctx, "slow", nil); err != nil {
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
			// leave the mailbox empty on disk.
			if ds, _, err := plat.PollMailbox(ctx, "gw-d", 5*time.Millisecond); err != nil || len(ds) != 0 {
				t.Fatalf("long-poll afterwards delivered %+v, %v", ds, err)
			}
			if s, err := plat.OpenSession(ctx); err != nil || len(s.Deliveries) != 0 {
				t.Fatalf("session afterwards delivered %+v, %v", s, err)
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

// TestDispatchAgainstMailboxlessGateway: a device that asks for its mail
// on an upload to a gateway that runs no mailbox subsystem gets the plain
// answer — the agent id — and collects directly, as it always did.
func TestDispatchAgainstMailboxlessGateway(t *testing.T) {
	f, tap, _ := newTappedFixture(t)
	ctx := context.Background()
	gw, err := gateway.New(gateway.Config{
		Addr: "gw-d", KeyPair: kp, Transport: f.net.Transport(netsim.ZoneWired),
		Spawn: f.queue.Go, FuelSlice: fixtureFuel,
	})
	if err != nil {
		t.Fatal(err)
	}
	addEchoPackages(t, gw)
	f.net.AddHost("gw-d", netsim.ZoneWired, gw.Handler())
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", mavmParams(5))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := gw.Registry().Agent(id); !ok || !st.Done || tap.attached != 0 {
		t.Fatalf("dispatch returned %q: registry %+v, %d answer(s) carried mail", id, st, tap.attached)
	}
	if rd, err := f.plat.Collect(ctx, id); err != nil || !rd.OK() {
		t.Fatalf("collect = %+v, %v", rd, err)
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
