package core

import (
	"context"
	"sync"
	"testing"

	"pdagent/internal/mas"
	"pdagent/internal/push"
	"pdagent/internal/transport"
)

// These tests drive the acceptance criterion of the device-session
// subsystem: a device that is OFFLINE when its agent terminates
// receives the result exactly once after reconnecting — on a single
// gateway, through a 3-member cluster whose edge is not the agent's
// home, and across gateway crash/restart (journal and mailbox both
// recover).

func TestOfflineDeviceReceivesResultOnce(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 31})
	defer w.Close()
	ctx, _ := w.NewJourney()
	dev := deviceAt(t, w, "alice")
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 1))
	if err != nil {
		t.Fatal(err)
	}

	// The device drops off the air; the journey completes without it.
	if err := w.DisconnectDevice("alice"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	// While offline, the device genuinely cannot reach the gateway...
	if _, err := dev.OpenSession(ctx); err == nil {
		t.Fatal("session succeeded through a cut uplink")
	}
	// ...but the result already sits in its durable mailbox.
	if n := w.Gateways[0].Mailbox().Pending("alice"); n != 1 {
		t.Fatalf("mailbox pending = %d, want 1", n)
	}

	if err := w.ReconnectDevice("alice"); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Deliveries) != 1 {
		t.Fatalf("deliveries = %+v, want exactly one", s.Deliveries)
	}
	d := s.Deliveries[0]
	if d.Kind != push.KindResult || d.AgentID != agentID || d.Result == nil || !d.Result.OK() {
		t.Fatalf("delivery = %+v", d)
	}
	// Exactly once: nothing on a second session, and the hub agrees.
	s2, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery on second session: %+v", s2.Deliveries)
	}
	if st := w.Gateways[0].Mailbox().Stats(); st.Delivered != 1 || st.Pending != 0 {
		t.Fatalf("hub stats = %+v", st)
	}
}

// TestClusterOfflineDeliveryEdgeNotHome: the agent is homed on another
// member than the edge the device talks to; the result relays to the
// edge and lands in the mailbox THERE, so the reconnecting device gets
// it in one hop.
func TestClusterOfflineDeliveryEdgeNotHome(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 37})
	defer w.Close()
	ctx, _ := w.NewJourney()
	owner := "alice"
	edge, home := edgeAndHome(t, w, owner)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, edge, AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DisconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	w.Run()

	edgeGW := w.Gateways[w.gatewayIndex(edge)]
	homeGW := w.Gateways[w.gatewayIndex(home)]
	if n := edgeGW.Mailbox().Pending(owner); n != 1 {
		t.Fatalf("edge mailbox pending = %d, want 1 (relay should land the result at the edge)", n)
	}
	if n := homeGW.Mailbox().Pending(owner); n != 0 {
		t.Fatalf("home mailbox pending = %d, want 0 (the device talks to the edge)", n)
	}

	if err := w.ReconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gateway != edge || len(s.Deliveries) != 1 || s.Deliveries[0].AgentID != agentID ||
		s.Deliveries[0].Result == nil || !s.Deliveries[0].Result.OK() {
		t.Fatalf("session = %+v", s)
	}
	if s2, _ := dev.OpenSession(ctx); s2 == nil || len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery: %+v", s2)
	}
}

// TestMailboxSurvivesGatewayCrash: the gateway process dies after the
// result was enqueued but before the device ever reconnected. The
// replacement instance serves the same mailbox store; the device
// resumes from its cursor with no loss and no duplicate.
func TestMailboxSurvivesGatewayCrash(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 41, Journal: true})
	defer w.Close()
	ctx, _ := w.NewJourney()
	dev := deviceAt(t, w, "alice")
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DisconnectDevice("alice"); err != nil {
		t.Fatal(err)
	}
	w.Run() // result lands in the durable mailbox

	if err := w.CrashGateway("gw-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RestartGateway(ctx, "gw-0"); err != nil {
		t.Fatal(err)
	}
	if err := w.ReconnectDevice("alice"); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Deliveries) != 1 || s.Deliveries[0].AgentID != agentID || s.Deliveries[0].Result == nil {
		t.Fatalf("session after crash = %+v", s)
	}
	if s2, _ := dev.OpenSession(ctx); len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery after crash: %+v", s2.Deliveries)
	}
}

// TestClusterCrashMidJourneyMailboxExactlyOnce is the full acceptance
// drill: 3-member cluster, edge != home, the device offline, and the
// HOME member crashes while the agent is mid-itinerary. The journal
// recovers the journey, the result relays to the edge after the
// restart, and the reconnecting device receives it exactly once — the
// banks' ledgers prove the transactions also ran exactly once.
func TestClusterCrashMidJourneyMailboxExactlyOnce(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 43, Journal: true})
	defer w.Close()
	ctx, _ := w.NewJourney()
	owner := "alice"
	edge, home := edgeAndHome(t, w, owner)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, edge, AppEBanking); err != nil {
		t.Fatal(err)
	}
	const txns = 2
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, txns))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DisconnectDevice(owner); err != nil {
		t.Fatal(err)
	}

	// Let the agent reach bank-a, then kill its home member.
	for w.Hosts["bank-a"].AgentStates()[agentID] != mas.StateRunning {
		if !w.Queue.Step() {
			t.Fatal("agent never reached bank-a")
		}
	}
	if err := w.CrashGateway(home); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if _, err := w.RestartGateway(ctx, home); err != nil {
		t.Fatal(err)
	}
	if n := w.RetryParked(ctx); n == 0 {
		t.Fatal("no parked transfers to retry after restart")
	}
	w.Run()

	if err := w.ReconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var results int
	for _, d := range s.Deliveries {
		if d.Kind == push.KindResult && d.AgentID == agentID {
			results++
			if d.Result == nil || !d.Result.OK() {
				t.Fatalf("bad result delivery: %+v", d)
			}
		}
	}
	if results != 1 {
		t.Fatalf("received %d results across crash/restart, want exactly 1 (%+v)", results, s.Deliveries)
	}
	// A second session redelivers nothing, even though the recovery may
	// have used the pull-repair path.
	if s2, _ := dev.OpenSession(ctx); len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery: %+v", s2.Deliveries)
	}
	// The ledgers prove exactly-once execution.
	for _, b := range []string{"bank-a", "bank-b"} {
		bal, _ := w.Banks[b].Balance("alice")
		if want := int64(10_000 - 10*txns); bal != want {
			t.Errorf("%s alice = %d, want %d", b, bal, want)
		}
	}
}

// TestMailboxFollowsDeviceAcrossEdges: the device reconnects through a
// DIFFERENT member than the one holding its mailbox; the new edge pulls
// the mailbox over on demand and the old edge retires it.
func TestMailboxFollowsDeviceAcrossEdges(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 47})
	defer w.Close()
	ctx, _ := w.NewJourney()
	owner := "alice"
	edge, _ := edgeAndHome(t, w, owner)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, edge, AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DisconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	w.Run()

	// Reconnect through another member.
	var other string
	for _, gw := range w.Gateways {
		if gw.Addr() != edge {
			other = gw.Addr()
			break
		}
	}
	if err := w.ReconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSessionAt(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	var results int
	for _, d := range s.Deliveries {
		if d.Kind == push.KindResult && d.AgentID == agentID {
			results++
		}
	}
	if results != 1 {
		t.Fatalf("migration delivered %d results, want 1 (%+v)", results, s.Deliveries)
	}
	// The old edge handed the mailbox over.
	if n := w.Gateways[w.gatewayIndex(edge)].Mailbox().Pending(owner); n != 0 {
		t.Fatalf("old edge still holds %d entries after migration", n)
	}
	// Nothing redelivers — through either member.
	if s2, _ := dev.OpenSessionAt(ctx, other); len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery at new edge: %+v", s2.Deliveries)
	}
	if s3, _ := dev.OpenSessionAt(ctx, edge); s3 != nil && len(s3.Deliveries) != 0 {
		t.Fatalf("redelivery at old edge: %+v", s3.Deliveries)
	}
}

// attackerSink records every request that reaches it — it stands in
// for an attacker-controlled host a forged prev-edge header points at.
type attackerSink struct {
	mu   sync.Mutex
	reqs []*transport.Request
}

func (a *attackerSink) Serve(_ context.Context, req *transport.Request) *transport.Response {
	a.mu.Lock()
	cp := &transport.Request{Path: req.Path, Body: req.Body}
	for k, v := range req.Header {
		cp.SetHeader(k, v)
	}
	a.reqs = append(a.reqs, cp)
	a.mu.Unlock()
	return transport.OKText("owned")
}

// TestMailboxPullRefusesNonMembers: prev-edge is client-supplied and
// the migration pull carries the shared cluster secret, so a gateway
// must only honour it for live cluster members — never forward the
// secret to an address an unauthenticated client chose.
func TestMailboxPullRefusesNonMembers(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 53})
	defer w.Close()
	ctx, _ := w.NewJourney()
	sink := &attackerSink{}
	w.Net.AddHost("attacker-host", "wired", sink)

	owner := "alice"
	edge, _ := edgeAndHome(t, w, owner)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, edge, AppEBanking); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1)); err != nil {
		t.Fatal(err)
	}
	w.Run()

	// Forge a poll naming the attacker as the previous edge. The token
	// is the device's own (the attack here is the SSRF, not the read).
	tok := w.Gateways[w.gatewayIndex(edge)].Mailbox().Touch(owner)
	req := &transport.Request{Path: "/pdagent/mailbox"}
	req.SetHeader("device", owner)
	req.SetHeader("mailbox-token", tok)
	req.SetHeader("prev-edge", "attacker-host")
	resp, err := w.Transport("wired").RoundTrip(ctx, edge, req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("poll: %v %v", resp, err)
	}
	sink.mu.Lock()
	n := len(sink.reqs)
	sink.mu.Unlock()
	if n != 0 {
		t.Fatalf("gateway contacted the attacker host %d time(s) — cluster secret exfiltrated", n)
	}
	// The poll itself still served the device's mail.
	_, entries, _, _, _, _, perr := push.ParseEntries(resp.Body)
	if perr != nil || len(entries) != 1 {
		t.Fatalf("poll served %d entries (%v), want 1", len(entries), perr)
	}
}
