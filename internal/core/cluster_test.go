package core

import (
	"context"
	"fmt"
	"testing"

	"pdagent/internal/cluster"
	"pdagent/internal/device"
	"pdagent/internal/gateway"
	"pdagent/internal/mas"
	"pdagent/internal/transport"
)

// clusterWorld builds a 3-member clustered world with small keys.
func clusterWorld(t *testing.T, cfg SimConfig) *SimWorld {
	t.Helper()
	if len(cfg.GatewayAddrs) == 0 {
		cfg.GatewayAddrs = []string{"gw-0", "gw-1", "gw-2"}
	}
	cfg.Cluster = true
	return testWorld(t, cfg)
}

// edgeAndHome picks a member pair for owner such that the consistent-
// hash home of (AppEBanking, owner) differs from the returned edge.
func edgeAndHome(t *testing.T, w *SimWorld, owner string) (edge, home string) {
	t.Helper()
	home = w.Nodes[0].Home(cluster.SubscriptionKey(AppEBanking, owner))
	if home == "" {
		t.Fatal("no home member for key")
	}
	for _, gw := range w.Gateways {
		if gw.Addr() != home {
			return gw.Addr(), home
		}
	}
	t.Fatal("no edge member distinct from home")
	return "", ""
}

func deviceAt(t *testing.T, w *SimWorld, owner string) *device.Platform {
	t.Helper()
	dev, err := w.NewDevice(owner)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestClusterDispatchAnyMemberCompletes is the first acceptance
// criterion: a dispatch uploaded through ANY member is homed by the
// ring, executed, and its result document reaches the member the
// device talks to (pushed by the home member's relay, not pulled).
func TestClusterDispatchAnyMemberCompletes(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 7})
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
	// The edge forwarded it and tracked the remote placement.
	edgeGW := w.Gateways[w.gatewayIndex(edge)]
	if n := forwardedDispatches(edgeGW); n != 1 {
		t.Fatalf("edge forwarded %d dispatches, want 1", n)
	}
	if st, ok := edgeGW.Registry().Agent(agentID); !ok || st.HomeGW != home {
		t.Fatalf("edge tracking = %+v, %v; want home %s", st, ok, home)
	}
	// The home member owns the agent on its embedded MAS.
	homeGW := w.Gateways[w.gatewayIndex(home)]
	if _, ok := homeGW.MAS().AgentStates()[agentID]; !ok {
		t.Fatalf("agent %s not resident on home member %s", agentID, home)
	}

	w.Run()

	// Result reached the edge without an on-demand fetch: the edge's
	// own registry entry is Done (relay landed during the journey).
	if st, ok := edgeGW.Registry().Agent(agentID); !ok || !st.Done {
		t.Fatalf("edge never received the relayed result: %+v", st)
	}
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.OK() {
		t.Fatalf("journey failed: %s", rd.Error)
	}
	// Exactly one execution: one txn of 10 per bank.
	for _, b := range []string{"bank-a", "bank-b"} {
		bal, _ := w.Banks[b].Balance("alice")
		if bal != 10_000-10 {
			t.Errorf("%s alice = %d, want %d", b, bal, 10_000-10)
		}
	}
}

func forwardedDispatches(gw *gateway.Gateway) uint64 {
	return gw.Metrics().Counter("pdagent_dispatch_forwarded_total", "").Value()
}

// TestClusterSingleMemberForwardsNothing: a one-member tier is every
// key's home, so a journey through it completes without a forward.
func TestClusterSingleMemberForwardsNothing(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 7, GatewayAddrs: []string{"gw-0"}})
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
	w.Run()
	if rd, err := dev.Collect(ctx, agentID); err != nil || !rd.OK() {
		t.Fatalf("journey through a single-member tier: %+v, %v", rd, err)
	}
	if n := forwardedDispatches(w.Gateways[0]); n != 0 {
		t.Fatalf("single-member tier forwarded %d dispatches", n)
	}
}

// TestClusterStatusChaseTwoHops is the satellite forwarding-pointer
// test: the device asks its edge member for status while the agent sits
// two hops away (home member -> bank-a -> bank-b); the edge resolves
// through the location directory plus live moved-to pointers.
func TestClusterStatusChaseTwoHops(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 11})
	defer w.Close()
	ctx, _ := w.NewJourney()
	owner := "alice"
	edge, _ := edgeAndHome(t, w, owner)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, edge, AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Advance the deterministic schedule until the agent reached
	// bank-b (it has already traversed home -> bank-a -> bank-b).
	for w.Hosts["bank-b"].AgentStates()[agentID] != mas.StateRunning {
		if !w.Queue.Step() {
			t.Fatal("agent never reached bank-b")
		}
	}
	state, body, err := dev.AgentStatus(ctx, agentID)
	if err != nil {
		t.Fatal(err)
	}
	if state != "travelling" {
		t.Fatalf("state = %q, want travelling (body %s)", state, body)
	}
	// After a gossip round the edge's directory points at bank-b
	// directly (the host relayed its arrival to the home member, whose
	// heartbeat piggybacked it to the edge).
	w.TickCluster(ctx)
	w.TickCluster(ctx)
	edgeNode := w.Nodes[w.gatewayIndex(edge)]
	if loc, ok := edgeNode.Locations().Get(agentID); !ok || loc.Addr != "bank-b" {
		t.Fatalf("edge location = %+v, %v; want bank-b", loc, ok)
	}
	w.Run()
	if rd, err := dev.Collect(ctx, agentID); err != nil || !rd.OK() {
		t.Fatalf("collect after chase: %v", err)
	}
}

// TestClusterDispatchDuringMemberKill is the satellite reroute test: a
// dispatch whose ring home is dead still completes — the edge reroutes
// along the ring when the forward fails, without waiting for the
// failure detector.
func TestClusterDispatchDuringMemberKill(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 13})
	defer w.Close()
	ctx, _ := w.NewJourney()
	owner := "alice"
	edge, home := edgeAndHome(t, w, owner)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, edge, AppEBanking); err != nil {
		t.Fatal(err)
	}
	if err := w.CrashGateway(home); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))
	if err != nil {
		t.Fatalf("dispatch with dead home member: %v", err)
	}
	w.Run()
	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.OK() {
		t.Fatalf("rerouted journey failed: %s", rd.Error)
	}
	// The failure detector eventually evicts the dead member from
	// placement for future dispatches.
	for i := 0; i < 6; i++ {
		w.TickCluster(ctx)
	}
	for i := 0; i < 64; i++ {
		key := cluster.SubscriptionKey(AppEBanking, fmt.Sprintf("dev-%d", i))
		for _, node := range w.Nodes {
			if node == nil || w.crashedGW[node.Self()] {
				continue
			}
			if h := node.Home(key); h == home {
				t.Fatalf("dead member %s still receives placements", home)
			}
		}
	}
}

// TestClusterMemberKillMidItineraryExactlyOnce is the hard acceptance
// criterion: the agent's home member dies while the agent is mid-
// itinerary; the journaled fleet recovers and the journey completes
// exactly once (no double-spend), with the device collecting through
// its original edge member.
func TestClusterMemberKillMidItineraryExactlyOnce(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 17, Journal: true})
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
	// The journey cannot deliver home: the agent parks (journaled) at
	// the host that failed to reach the dead member.
	if _, err := dev.Collect(ctx, agentID); err == nil {
		t.Fatal("result available while the home member is dead")
	}

	if _, err := w.RestartGateway(ctx, home); err != nil {
		t.Fatal(err)
	}
	if n := w.RetryParked(ctx); n == 0 {
		t.Fatal("no parked transfers to retry after restart")
	}
	w.Run()

	rd, err := dev.Collect(ctx, agentID)
	if err != nil {
		t.Fatalf("collect after member recovery: %v", err)
	}
	if !rd.OK() {
		t.Fatalf("journey failed after recovery: %s", rd.Error)
	}
	// Exactly-once: 10 per txn per bank, no double-spend from retried
	// handoffs.
	for _, b := range []string{"bank-a", "bank-b"} {
		bal, _ := w.Banks[b].Balance("alice")
		if want := int64(10_000 - 10*txns); bal != want {
			t.Errorf("%s alice = %d, want %d", b, bal, want)
		}
	}
}

// TestClusterDrainAndLiveDirectory: a draining member refuses new
// dispatches, leaves the live view immediately, and the §3.5
// directory (central provider + gateway endpoint) reflects it.
func TestClusterDrainAndLiveDirectory(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 19})
	defer w.Close()
	ctx, _ := w.NewJourney()
	dev := deviceAt(t, w, "alice")
	if err := dev.RefreshGateways(ctx, CentralAddr); err != nil {
		t.Fatal(err)
	}
	if got := len(dev.Gateways()); got != 3 {
		t.Fatalf("live directory served %d members, want 3", got)
	}

	draining := w.Gateways[2]
	drainCtx, cancel := context.WithCancel(ctx)
	cancel() // no residents: Drain must return immediately even cancelled
	if left := draining.Drain(drainCtx); left != 0 {
		t.Fatalf("drain left %d agents on an idle gateway", left)
	}
	if !draining.Draining() {
		t.Fatal("gateway not marked draining")
	}

	// New dispatches at the drained member are refused retryably.
	if err := dev.Subscribe(ctx, draining.Addr(), AppEBanking); err == nil {
		if _, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1)); err == nil {
			t.Fatal("drained gateway accepted a dispatch")
		}
	}

	// Peers dropped it without any failure-detector delay...
	for _, node := range w.Nodes[:2] {
		for _, addr := range node.Membership().AliveAddrs() {
			if addr == draining.Addr() {
				t.Fatalf("peer %s still lists the drained member", node.Self())
			}
		}
	}
	// ...and the central directory's live view shrank.
	if err := dev.RefreshGateways(ctx, CentralAddr); err != nil {
		t.Fatal(err)
	}
	if got := len(dev.Gateways()); got != 2 {
		t.Fatalf("live directory after drain = %d members, want 2", got)
	}
	// Placement never homes new keys on the drained member.
	for i := 0; i < 64; i++ {
		key := cluster.SubscriptionKey(AppEBanking, fmt.Sprintf("dev-%d", i))
		if h := w.Nodes[0].Home(key); h == draining.Addr() {
			t.Fatal("placement still uses the drained member")
		}
	}
}

// TestClusterDispatchEndpointRequiresToken: an outsider who forges the
// hop-chain header on the public listener must NOT reach the
// unauthenticated admission path — the shared cluster secret is the
// only accepted proof of membership.
func TestClusterDispatchEndpointRequiresToken(t *testing.T) {
	w := clusterWorld(t, SimConfig{Seed: 29})
	defer w.Close()
	ctx, _ := w.NewJourney()
	rt := w.Transport("wired")
	for _, path := range []string{"/cluster/dispatch", "/cluster/result"} {
		req := &transport.Request{Path: path, Body: []byte("<whatever/>")}
		req.SetHeader("x-cluster-fwd", "gw-1") // forged chain, no token
		resp, err := rt.RoundTrip(ctx, "gw-0", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != transport.StatusForbidden {
			t.Fatalf("%s without cluster token: status %d, want %d", path, resp.Status, transport.StatusForbidden)
		}
	}
}
