package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"pdagent/internal/device"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// TestShedInFlightWatermark drives the admission-control loop: with a
// one-agent in-flight watermark and agent execution held back, the
// second dispatch must bounce with StatusUnavailable + Retry-After,
// the shed counters (the default account's included) and the _shed
// trace must record it, and draining the backlog must reopen the front
// door. The shed is decided after the dispatch key verifies: while it
// is tripped, a forged key still answers 401, an oversized body 400,
// and the lost-answer retry of the admitted upload its agent id.
func TestShedInFlightWatermark(t *testing.T) {
	f := newFixtureCfg(t, func(cfg *Config) {
		cfg.ShedInFlight = 1
	})
	f.addSlowEcho(t)
	sub := f.subscribe(t, "slow", "dev-1")
	pi := func(nonce string) *wire.PackedInformation {
		return &wire.PackedInformation{
			CodeID:      "slow",
			DispatchKey: pisec.DispatchKey("slow", sub.Secret),
			Owner:       "dev-1",
			Nonce:       nonce,
			Source:      slowEchoSrc,
		}
	}

	// First dispatch admits; the agent runs out of its first slice and
	// the rest of its loop sits in the serial queue, so the in-flight
	// gauge stays at the watermark.
	first := f.dispatchPI(t, pi("n-1"), false)
	if !first.IsOK() {
		t.Fatalf("first dispatch: %d %s", first.Status, first.Text())
	}
	if n := f.gw.Registry().InFlight(); n != 1 {
		t.Fatalf("in-flight = %d, want 1", n)
	}

	resp := f.dispatchPI(t, pi("n-2"), false)
	if resp.Status != transport.StatusUnavailable {
		t.Fatalf("watermarked dispatch: %d %s, want %d", resp.Status, resp.Text(), transport.StatusUnavailable)
	}
	if ra := resp.GetHeader("retry-after"); ra != "1" {
		t.Fatalf("retry-after = %q, want \"1\"", ra)
	}
	if n := f.gw.mShed.Value(); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}
	spans := f.gw.TraceRing().Spans(shedTrace)
	if len(spans) != 1 || spans[0].Op != "shed" || spans[0].Detail != shedInFlight {
		t.Fatalf("shed spans = %+v, want one %q/%q", spans, "shed", shedInFlight)
	}

	forged := pi("n-4")
	forged.DispatchKey = strings.Repeat("0", 32)
	if resp := f.dispatchPI(t, forged, false); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("forged key under the watermark: %d %s, want 401", resp.Status, resp.Text())
	}
	if resp := f.dispatchBody(t, make([]byte, maxDispatchBody+1)); resp.Status != transport.StatusBadRequest {
		t.Fatalf("oversized body under the watermark: %d %s, want 400", resp.Status, resp.Text())
	}
	if resp := f.dispatchPI(t, pi("n-1"), false); !resp.IsOK() || resp.Text() != first.Text() || resp.GetHeader("mailbox-token") != "" {
		t.Fatalf("retried upload under the watermark: %d %q token %q, want its agent %q without a token",
			resp.Status, resp.Text(), resp.GetHeader("mailbox-token"), first.Text())
	}
	scrape := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"}).Text()
	for _, row := range []string{
		"pdagent_dispatch_shed_total 1\n",
		`pdagent_tenant_shed_total{tenant="default"} 1` + "\n",
	} {
		if !strings.Contains(scrape, row) {
			t.Errorf("scrape lacks %q", row)
		}
	}

	// Run the backlog: the agent completes, in-flight drops, and the
	// next dispatch is admitted again.
	f.queue.Drain()
	if n := f.gw.Registry().InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", n)
	}
	if resp := f.dispatchPI(t, pi("n-3"), false); !resp.IsOK() {
		t.Fatalf("post-drain dispatch: %d %s", resp.Status, resp.Text())
	}
}

// TestMetricsEndpoint scrapes /metrics after a journey and checks the
// Prometheus text is well-formed: every series under a TYPE line,
// names unique, no NaN/Inf, and the PR's headline series present.
func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	resp := f.dispatchPI(t, &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Source:      echoSrc,
	}, true)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	f.queue.Drain()

	mresp := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"})
	if !mresp.IsOK() {
		t.Fatalf("/metrics: %d %s", mresp.Status, mresp.Text())
	}
	if ct := mresp.GetHeader("content-type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := string(mresp.Body)
	if strings.Contains(body, "NaN") || strings.Contains(body, "Inf") {
		t.Fatalf("scrape contains NaN/Inf:\n%s", body)
	}
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 4 {
			t.Fatalf("malformed TYPE line: %q", line)
		}
		if typed[parts[2]] {
			t.Fatalf("duplicate TYPE for %s", parts[2])
		}
		typed[parts[2]] = true
	}
	for _, name := range []string{
		"pdagent_dispatch_us", "pdagent_dispatch_total", "pdagent_dispatch_shed_total",
		"pdagent_inflight", "pdagent_outbound_queue_depth", "pdagent_residents",
		"pdagent_deliver_total", "pdagent_trace_spans", "pdagent_admit_total",
	} {
		if !typed[name] {
			t.Errorf("scrape missing %s", name)
		}
	}
	// What admission made of each agent's first slice: all three rows
	// from the first scrape, the echo counted as delivered.
	for _, row := range []string{
		"pdagent_admit_total{outcome=\"delivered\"} 1\n",
		"pdagent_admit_total{outcome=\"shipped\"} 0\n",
		"pdagent_admit_total{outcome=\"suspended\"} 0\n",
	} {
		if !strings.Contains(body, row) {
			t.Errorf("scrape lacks %q", row)
		}
	}

	// The journey's itinerary is served back as a trace document.
	agentID := resp.GetHeader("agent")
	tresp := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/pdagent/trace/" + agentID})
	if !tresp.IsOK() {
		t.Fatalf("trace: %d %s", tresp.Status, tresp.Text())
	}
	td, err := wire.ParseTrace(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, sp := range td.Spans {
		ops[sp.Op] = true
	}
	for _, op := range []string{"dispatch", "admit", "deliver", "result"} {
		if !ops[op] {
			t.Errorf("local journey trace missing op %q (have %v)", op, ops)
		}
	}
}

// TestZeroHopTraceReadsInTimeOrder: the agent's first slice runs inside
// the admission, so the admit span is recorded before it — a zero-hop
// journey's trace still reads admit, result, mailbox, deliver, dispatch.
func TestZeroHopTraceReadsInTimeOrder(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	agentID := dispatchEcho(t, f, "dev-1")
	var ops []string
	for _, sp := range f.gw.TraceRing().Spans(agentID) {
		ops = append(ops, sp.Op)
	}
	if got, want := strings.Join(ops, " "), "admit result mailbox deliver dispatch"; got != want {
		t.Fatalf("zero-hop trace reads %q, want %q", got, want)
	}
}

// wantUnsealRows scrapes /metrics and checks the unseal stage's rows.
func (f *fixture) wantUnsealRows(t *testing.T, full, resumed, unknown uint64, sessions int) {
	t.Helper()
	resp := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"})
	if !resp.IsOK() {
		t.Fatalf("/metrics: %d %s", resp.Status, resp.Text())
	}
	for _, row := range []string{
		"# TYPE pdagent_unseal_total counter\n",
		fmt.Sprintf("pdagent_unseal_total{path=\"full\"} %d\n", full),
		fmt.Sprintf("pdagent_unseal_total{path=\"resumed\"} %d\n", resumed),
		fmt.Sprintf("pdagent_unseal_total{path=\"unknown\"} %d\n", unknown),
		fmt.Sprintf("pdagent_unseal_sessions %d\n", sessions),
	} {
		if !strings.Contains(resp.Text(), row) {
			t.Fatalf("scrape lacks %q", row)
		}
	}
}

// bodyTap records (copies of) the dispatch bodies a device uploads.
type bodyTap struct {
	transport.RoundTripper
	bodies [][]byte
}

func (b *bodyTap) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if req.Path == "/pdagent/dispatch" {
		b.bodies = append(b.bodies, append([]byte(nil), req.Body...))
	}
	return b.RoundTripper.RoundTrip(ctx, addr, req)
}

// TestUnsealResumption: one device's second sealed dispatch names the
// session its first one opened — the 16-byte id SHA-256(wrap)[:16] in
// place of the wrapped key, counted as resumed — and the replay window
// still stands in front of an envelope that names its session.
func TestUnsealResumption(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	// Every row exists before any sealed traffic (the key pair is shared
	// by the package's fixtures, so counts are deltas from here).
	full0, resumed0, unknown0, sessions0 := f.kp.UnsealStats()
	f.wantUnsealRows(t, full0, resumed0, unknown0, sessions0)

	tap := &bodyTap{RoundTripper: f.tr}
	dev, err := device.NewPlatform(device.Config{Owner: "dev-r", Transport: tap, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := dev.Subscribe(ctx, "gw-t", "echo"); err != nil {
		t.Fatal(err)
	}
	var ids [2]string
	for i := range ids {
		if ids[i], err = dev.Dispatch(ctx, "echo", map[string]mavm.Value{"i": mavm.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	f.wantUnsealRows(t, full0+1, resumed0+1, unknown0, sessions0+1)
	const keyAt, wrapLen, idLen = 8, 128, 16 // "PISEC1" + u16, RSA-1024 fixture key, SHA-256 prefix
	if len(tap.bodies) != 2 || binary.BigEndian.Uint16(tap.bodies[0][keyAt-2:]) != wrapLen {
		t.Fatal("the first upload did not carry the wrapped key")
	}
	id := sha256.Sum256(tap.bodies[0][keyAt : keyAt+wrapLen])
	if binary.BigEndian.Uint16(tap.bodies[1][keyAt-2:]) != idLen || !bytes.Equal(tap.bodies[1][keyAt:keyAt+idLen], id[:idLen]) {
		t.Fatal("the second upload did not name the first one's session by id")
	}

	// The id body replayed verbatim: unsealed (resumed again), then
	// stopped by the nonce window — the original agent id, no new agent,
	// no mailbox token for whoever captured it.
	agents := f.gw.Registry().NumAgents()
	replay := f.dispatchBody(t, tap.bodies[1])
	if !replay.IsOK() || replay.Text() != ids[1] || replay.GetHeader("mailbox-token") != "" {
		t.Fatalf("replayed resumed body: %d %q token %q, want idempotent %q without a token",
			replay.Status, replay.Text(), replay.GetHeader("mailbox-token"), ids[1])
	}
	if n := f.gw.Registry().NumAgents(); n != agents {
		t.Fatalf("replay created an agent: %d -> %d", agents, n)
	}
	f.wantUnsealRows(t, full0+1, resumed0+2, unknown0, sessions0+1)
}

// TestDispatchBodyBound sits on the upload limit: a body of exactly
// maxDispatchBody reaches the unseal stage, one byte more is refused
// before any hashing.
func TestDispatchBodyBound(t *testing.T) {
	f := newFixture(t)
	const overhead = 6 + 2 + 128 + 16 + 16 // magic, length, RSA-1024 wrap, IV, digest
	atLimit, err := pisec.AppendSeal(nil, f.kp.Public(), make([]byte, maxDispatchBody-overhead))
	if err != nil {
		t.Fatal(err)
	}
	if len(atLimit) != maxDispatchBody {
		t.Fatalf("test envelope is %d bytes, want %d", len(atLimit), maxDispatchBody)
	}
	full0, _, _, _ := f.kp.UnsealStats()
	resp := f.dispatchBody(t, atLimit)
	if resp.Status != transport.StatusBadRequest || !strings.Contains(resp.Text(), "decompressing") {
		t.Fatalf("body at the limit: %d %s; want it unsealed and refused by the decompressor", resp.Status, resp.Text())
	}
	if full, _, _, _ := f.kp.UnsealStats(); full != full0+1 {
		t.Fatalf("body at the limit did not reach the unseal stage")
	}
	resp = f.dispatchBody(t, append(atLimit, 0))
	if resp.Status != transport.StatusBadRequest || !strings.Contains(resp.Text(), "limit") {
		t.Fatalf("body over the limit: %d %s", resp.Status, resp.Text())
	}
}

// TestMailboxAckMetrics: "did the ack share the enqueue's fsync" is
// answerable from a scrape — both commit rows exist from the first one,
// and they and the staged gauge follow the hub.
func TestMailboxAckMetrics(t *testing.T) {
	scrape := func(f *fixture, folded, flushed, staged int) {
		t.Helper()
		resp := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"})
		if !resp.IsOK() {
			t.Fatalf("/metrics: %d %s", resp.Status, resp.Text())
		}
		for _, row := range []string{
			"# TYPE pdagent_mailbox_acks_total counter\n",
			fmt.Sprintf("pdagent_mailbox_acks_total{commit=\"folded\"} %d\n", folded),
			fmt.Sprintf("pdagent_mailbox_acks_total{commit=\"flushed\"} %d\n", flushed),
			fmt.Sprintf("pdagent_mailbox_staged_acks %d\n", staged),
		} {
			if !strings.Contains(resp.Text(), row) {
				t.Fatalf("scrape lacks %q", row)
			}
		}
	}
	scrape(newMailboxFixture(t, nil), 0, 0, 0)

	f := newMailboxFixture(t, nil)
	enqueue := func(i int) {
		t.Helper()
		agent := fmt.Sprint("ag-", i)
		if _, _, err := f.gw.Mailbox().Enqueue("dev-1", push.KindResult, agent, "result:"+agent, []byte("<r/>")); err != nil {
			t.Fatal(err)
		}
	}
	enqueue(1)
	fetchMailbox(t, f, "dev-1", 0, time.Second)
	enqueue(2)
	fetchMailbox(t, f, "dev-1", 1, time.Second) // ack 1 staged
	enqueue(3)                                  // and folded
	pollMailbox(t, f, "dev-1", 2)               // ack 2 staged, mail answered
	pollMailbox(t, f, "dev-1", 3)               // ack 3 staged; the empty answer commits both
	enqueue(4)
	fetchMailbox(t, f, "dev-1", 3, time.Second)
	enqueue(5)
	fetchMailbox(t, f, "dev-1", 4, time.Second) // ack 4 staged
	scrape(f, 1, 2, 1)
}
