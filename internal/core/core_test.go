package core

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdagent/internal/device"
	"pdagent/internal/gateway"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// testWorld builds a small-keyed world for test speed.
func testWorld(t *testing.T, cfg SimConfig) *SimWorld {
	t.Helper()
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 1024
	}
	w, err := NewSimWorld(cfg)
	if err != nil {
		t.Fatalf("NewSimWorld: %v", err)
	}
	return w
}

func ebankingParams(banks []string, txns int) map[string]mavm.Value {
	bankVals := make([]mavm.Value, len(banks))
	for i, b := range banks {
		bankVals[i] = mavm.Str(b)
	}
	txnVals := make([]mavm.Value, txns)
	for i := range txnVals {
		m := mavm.NewMap()
		m.MapEntries()["from"] = mavm.Str("alice")
		m.MapEntries()["to"] = mavm.Str("bob")
		m.MapEntries()["amount"] = mavm.Int(10)
		txnVals[i] = m
	}
	return map[string]mavm.Value{
		"banks":        mavm.NewList(bankVals...),
		"transactions": mavm.NewList(txnVals...),
	}
}

func TestEndToEndEBanking(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 1})
	dev, err := w.NewDevice("alice-pda")
	if err != nil {
		t.Fatal(err)
	}
	ctx, clock := w.NewJourney()

	// §3.1 subscription.
	entries, err := dev.Catalogue(ctx, "gw-0")
	if err != nil {
		t.Fatalf("Catalogue: %v", err)
	}
	if len(entries) != len(StandardApps()) {
		t.Fatalf("catalogue entries = %d", len(entries))
	}
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if subs := dev.Subscriptions(); len(subs) != 1 || subs[0] != AppEBanking {
		t.Fatalf("Subscriptions = %v", subs)
	}

	// §3.2 dispatch: measure the online time of the PI upload.
	before := clock.Now()
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 3))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	uploadTime := clock.Now() - before
	if uploadTime <= 0 {
		t.Fatal("dispatch consumed no virtual time")
	}
	if len(dev.Pending()) != 1 {
		t.Fatalf("Pending = %v", dev.Pending())
	}

	// Device is now offline; the journey happens in the wired world.
	if _, err := dev.Collect(ctx, agentID); !errors.Is(err, device.ErrNotReady) {
		t.Fatalf("early Collect err = %v, want ErrNotReady", err)
	}
	w.Run()

	// §3.3 result collection.
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !rd.OK() {
		t.Fatalf("journey failed: %s", rd.Error)
	}
	receipts, _ := rd.Get("receipts")
	if len(receipts.ListItems()) != 6 { // 3 txns at 2 banks
		t.Fatalf("receipts = %v", receipts)
	}
	failures, _ := rd.Get("failures")
	if len(failures.ListItems()) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	if rd.Hops != 3 {
		t.Fatalf("hops = %d", rd.Hops)
	}
	// Money really moved at both banks: 3 txns × 10 each.
	for _, b := range []string{"bank-a", "bank-b"} {
		if bal, _ := w.Banks[b].Balance("alice"); bal != 10_000-30 {
			t.Errorf("%s alice balance = %d", b, bal)
		}
	}
	if len(dev.Pending()) != 0 {
		t.Fatalf("Pending after collect = %v", dev.Pending())
	}
}

func TestDispatchWithoutSubscriptionRefused(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 2})
	dev, _ := w.NewDevice("mallory")
	ctx, _ := w.NewJourney()
	if _, err := dev.Dispatch(ctx, AppEBanking, nil); !errors.Is(err, device.ErrNotSubscribed) {
		t.Fatalf("err = %v, want ErrNotSubscribed", err)
	}
}

func TestForgedDispatchKeyRefused(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 3})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	if err := dev.Subscribe(ctx, "gw-0", AppEcho); err != nil {
		t.Fatal(err)
	}
	// A second device re-using alice's code id but its own (different)
	// secret must be refused: no subscription for that owner.
	dev2, _ := w.NewDevice("eve")
	if err := dev2.Subscribe(ctx, "gw-0", AppEcho); err != nil {
		t.Fatal(err)
	}
	// Both are subscribed; sanity: both can dispatch.
	if _, err := dev.Dispatch(ctx, AppEcho, nil); err != nil {
		t.Fatalf("alice dispatch: %v", err)
	}
	if _, err := dev2.Dispatch(ctx, AppEcho, nil); err != nil {
		t.Fatalf("eve dispatch: %v", err)
	}
}

func TestFailedJourneyReportsError(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 4})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	dev.Subscribe(ctx, "gw-0", AppEBanking) //nolint:errcheck
	// Itinerary includes a host that does not exist.
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "ghost-bank"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if rd.OK() || rd.Status != "failed" {
		t.Fatalf("status = %s", rd.Status)
	}
}

func TestApplicationLevelFailureDelivered(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 5})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	dev.Subscribe(ctx, "gw-0", AppEBanking) //nolint:errcheck
	params := ebankingParams([]string{"bank-a"}, 1)
	params["transactions"].ListItems()[0].MapEntries()["amount"] = mavm.Int(99_999_999)
	agentID, _ := dev.Dispatch(ctx, AppEBanking, params)
	w.Run()
	rd, err := dev.Collect(ctx, agentID)
	if err != nil || !rd.OK() {
		t.Fatalf("journey should complete: %v / %+v", err, rd)
	}
	failures, _ := rd.Get("failures")
	if len(failures.ListItems()) != 1 {
		t.Fatalf("failures = %v", failures)
	}
	msg := failures.ListItems()[0].MapEntries()["error"].AsStr()
	if !strings.Contains(msg, "insufficient") {
		t.Fatalf("failure message = %q", msg)
	}
}

func TestAgentStatusWhileTravelling(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 6})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	dev.Subscribe(ctx, "gw-0", AppEBanking) //nolint:errcheck
	agentID, _ := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))

	// Before running the world the agent is still at the gateway (its
	// first slice has not run).
	state, _, err := dev.AgentStatus(ctx, agentID)
	if err != nil {
		t.Fatalf("AgentStatus: %v", err)
	}
	if state != "travelling" {
		t.Fatalf("state before run = %q", state)
	}
	w.Run()
	state, _, err = dev.AgentStatus(ctx, agentID)
	if err != nil || state != "complete" {
		t.Fatalf("state after run = %q, %v", state, err)
	}
}

func TestGatewaySelectionByRTT(t *testing.T) {
	w := testWorld(t, SimConfig{
		Seed:         7,
		GatewayAddrs: []string{"gw-near", "gw-far"},
	})
	// Make gw-far genuinely far: its zone link is slow.
	w.Net.AddHost("gw-far", "far-zone", w.Gateways[1].Handler())
	w.Net.SetLinkBoth(netsim.ZoneWireless, "far-zone", netsim.Link{Latency: 3 * time.Second})

	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	addr, rtt, err := dev.SelectGateway(ctx)
	if err != nil {
		t.Fatalf("SelectGateway: %v", err)
	}
	if addr != "gw-near" {
		t.Fatalf("selected %q, want gw-near", addr)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestGatewayListRefreshOnThresholdBreach(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 8, GatewayAddrs: []string{"gw-0", "gw-1"}})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()

	// Device starts with a stale list pointing only at a far gateway.
	w.Net.AddHost("gw-stale", "far-zone", w.Gateways[1].Handler())
	w.Net.SetLinkBoth(netsim.ZoneWireless, "far-zone", netsim.Link{Latency: 5 * time.Second})
	if err := dev.SetGateways([]string{"gw-stale"}); err != nil {
		t.Fatal(err)
	}

	// Selection must refresh from the central server and land on a
	// near gateway.
	addr, rtt, err := dev.SelectGateway(ctx)
	if err != nil {
		t.Fatalf("SelectGateway: %v", err)
	}
	if addr != "gw-0" && addr != "gw-1" {
		t.Fatalf("selected %q after refresh", addr)
	}
	if rtt > 2*time.Second {
		t.Fatalf("rtt after refresh = %v", rtt)
	}
	if got := dev.Gateways(); len(got) != 2 {
		t.Fatalf("list after refresh = %v", got)
	}
}

func TestManagementDisposeViaGateway(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 9})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	dev.Subscribe(ctx, "gw-0", AppEBanking) //nolint:errcheck
	agentID, _ := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))

	// Dispose before the journey starts: the agent is resident at the
	// gateway's home MAS.
	if err := dev.Dispose(ctx, agentID); err != nil {
		t.Fatalf("Dispose: %v", err)
	}
	w.Run()
	// No result ever arrives, and the device forgot the journey.
	if len(dev.Pending()) != 0 {
		t.Fatalf("Pending = %v", dev.Pending())
	}
	if _, err := dev.Collect(ctx, agentID); err == nil {
		t.Fatal("collect after dispose succeeded")
	}
	// No money moved.
	if bal, _ := w.Banks["bank-a"].Balance("alice"); bal != 10_000 {
		t.Fatalf("alice balance = %d", bal)
	}
}

// TestManagementRetractViaGateway is the retract twin: the agent's
// admission already suspended it at its first migrate, and a retract
// landing before that departure leaves must win over it — the agent
// comes back "retracted" without ever reaching the bank.
func TestManagementRetractViaGateway(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 9})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	dev.Subscribe(ctx, "gw-0", AppEBanking) //nolint:errcheck
	agentID, _ := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))

	if err := dev.Retract(ctx, agentID); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	w.Run()
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if rd.Status != "retracted" || rd.Hops != 0 {
		t.Fatalf("result = %+v, want retracted at hop 0", rd)
	}
	if bal, _ := w.Banks["bank-a"].Balance("alice"); bal != 10_000 {
		t.Fatalf("alice balance = %d, the retracted agent reached the bank", bal)
	}
}

func TestDevicePersistenceAcrossRestart(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 10})
	store := rms.NewMemStore("device-db", 0)
	mk := func() *device.Platform {
		p, err := device.NewPlatform(device.Config{
			Owner:     "alice",
			Transport: w.Net.Transport(netsim.ZoneWireless),
			Store:     store,
			Secure:    true,
			Central:   CentralAddr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dev := mk()
	ctx, _ := w.NewJourney()
	if err := dev.SetGateways(w.GatewayAddrs()); err != nil {
		t.Fatal(err)
	}
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))
	if err != nil {
		t.Fatal(err)
	}

	// "Reboot" the device: a fresh platform over the same store.
	dev2 := mk()
	if subs := dev2.Subscriptions(); len(subs) != 1 || subs[0] != AppEBanking {
		t.Fatalf("subscriptions after restart = %v", subs)
	}
	if pend := dev2.Pending(); len(pend) != 1 || pend[0] != agentID {
		t.Fatalf("pending after restart = %v", pend)
	}
	if gws := dev2.Gateways(); len(gws) != 1 || gws[0] != "gw-0" {
		t.Fatalf("gateways after restart = %v", gws)
	}
	// The rebooted device can still collect.
	w.Run()
	rd, err := dev2.Collect(ctx, agentID)
	if err != nil || !rd.OK() {
		t.Fatalf("collect after restart: %v / %+v", err, rd)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, string) {
		w := testWorld(t, SimConfig{Seed: 42})
		dev, _ := w.NewDevice("alice")
		ctx, clock := w.NewJourney()
		dev.Subscribe(ctx, "gw-0", AppEBanking) //nolint:errcheck
		id, _ := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 2))
		w.Run()
		rd, err := dev.Collect(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		receipts, _ := rd.Get("receipts")
		return clock.Now(), receipts.String()
	}
	t1, r1 := run()
	t2, r2 := run()
	// Network randomness is seeded; the only residual wobble is crypto
	// randomness shifting compressed payloads by a few bytes (a few
	// hundred µs of simulated bandwidth time).
	diff := t1 - t2
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*time.Millisecond {
		t.Fatalf("same seed, different virtual time: %v vs %v", t1, t2)
	}
	if r1 != r2 {
		t.Fatalf("same seed, different receipts:\n%s\n%s", r1, r2)
	}
}

// TestGatewayRestartRequiresResubscription documents recovery: a
// gateway that loses its in-memory subscription state (restart)
// refuses stale dispatch keys, and the device recovers by
// resubscribing.
func TestGatewayRestartRequiresResubscription(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 12})
	dev, _ := w.NewDevice("alice")
	ctx, _ := w.NewJourney()
	if err := dev.Subscribe(ctx, "gw-0", AppEcho); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Dispatch(ctx, AppEcho, nil); err != nil {
		t.Fatal(err)
	}

	// "Restart" the gateway: a fresh instance (new key pair, empty
	// subscription table) takes over the same address.
	kp, err := pisec.GenerateKeyPair(1024)
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := gateway.New(gateway.Config{
		Addr:      "gw-0",
		KeyPair:   kp,
		Transport: w.Net.Transport(netsim.ZoneWired),
		Spawn:     w.Queue.Go,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterStandardApps(gw2); err != nil {
		t.Fatal(err)
	}
	w.Net.AddHost("gw-0", netsim.ZoneWired, gw2.Handler())

	// The stale subscription fails cleanly (either the old key cannot
	// be opened or the subscription is unknown)...
	if _, err := dev.Dispatch(ctx, AppEcho, nil); err == nil {
		t.Fatal("dispatch with stale subscription succeeded after restart")
	}
	// ...and resubscribing restores service.
	if err := dev.Subscribe(ctx, "gw-0", AppEcho); err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	id, err := dev.Dispatch(ctx, AppEcho, nil)
	if err != nil {
		t.Fatalf("dispatch after resubscribe: %v", err)
	}
	w.Run()
	if rd, err := dev.Collect(ctx, id); err != nil || !rd.OK() {
		t.Fatalf("collect after restart: %v / %+v", err, rd)
	}
}

// TestEndToEndOverRealHTTP runs the identical flow over loopback HTTP:
// same gateway, MAS and device code, real sockets instead of netsim.
func TestEndToEndOverRealHTTP(t *testing.T) {
	httpTr := &transport.HTTPClient{}

	// Build the sim world only to reuse its construction logic? No —
	// build live components directly.
	world, err := NewLiveWorld(LiveConfig{
		KeyBits: 1024,
		Serve: func(h transport.Handler) (addr string, stop func()) {
			srv := httptest.NewServer(transport.NewHTTPHandler(h))
			return strings.TrimPrefix(srv.URL, "http://"), srv.Close
		},
	})
	if err != nil {
		t.Fatalf("NewLiveWorld: %v", err)
	}
	defer world.Stop()

	dev, err := device.NewPlatform(device.Config{
		Owner:     "alice-live",
		Transport: httpTr,
		Secure:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetGateways([]string{world.GatewayAddr}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := dev.Subscribe(ctx, world.GatewayAddr, AppEBanking); err != nil {
		t.Fatalf("Subscribe over HTTP: %v", err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams(world.BankAddrs, 2))
	if err != nil {
		t.Fatalf("Dispatch over HTTP: %v", err)
	}

	// Poll for the result (live mode is asynchronous).
	deadline := time.Now().Add(10 * time.Second)
	var rd *resultDoc
	for time.Now().Before(deadline) {
		r, err := dev.Collect(ctx, agentID)
		if err == nil {
			rd = &resultDoc{r.Status, r.Error}
			break
		}
		if !errors.Is(err, device.ErrNotReady) {
			t.Fatalf("Collect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rd == nil {
		t.Fatal("result never arrived over HTTP")
	}
	if rd.status != "done" {
		t.Fatalf("status = %s (%s)", rd.status, rd.err)
	}
}

type resultDoc struct{ status, err string }
