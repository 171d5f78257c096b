package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pdagent/internal/netsim"
	"pdagent/internal/transport"
)

// testFleet wires n nodes over a simulated wired network.
type testFleet struct {
	net   *netsim.Network
	nodes []*Node
	addrs []string
}

func newFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	f := &testFleet{net: netsim.New(1)}
	for i := 0; i < n; i++ {
		f.addrs = append(f.addrs, fmt.Sprintf("gw-%d", i))
	}
	for _, addr := range f.addrs {
		node := NewNode(Config{
			Self:      addr,
			Seeds:     f.addrs,
			Transport: f.net.Transport(netsim.ZoneWired),
			Secret:    "test-cluster-secret",
		})
		f.net.AddHost(addr, netsim.ZoneWired, node.Handler())
		f.nodes = append(f.nodes, node)
	}
	return f
}

func (f *testFleet) tickAll(ctx context.Context) {
	for _, n := range f.nodes {
		n.Tick(ctx)
	}
}

func TestSeedBootstrap(t *testing.T) {
	f := newFleet(t, 3)
	// Before any heartbeat, the seed list is the live view: placement
	// and the directory work from t=0.
	for _, n := range f.nodes {
		if got := len(n.AliveAddrs()); got != 3 {
			t.Fatalf("node %s bootstrapped with %d live members, want 3", n.Self(), got)
		}
	}
	home := f.nodes[0].Home(SubscriptionKey("app.echo", "alice"))
	for _, n := range f.nodes[1:] {
		if h := n.Home(SubscriptionKey("app.echo", "alice")); h != home {
			t.Fatalf("placement disagrees: %s vs %s", h, home)
		}
	}
}

// TestHeartbeatEviction is the satellite failure-mode test: a member
// that stops answering is suspected (leaves placement) and then
// evicted; when it comes back, heartbeats restore it.
func TestHeartbeatEviction(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	f.tickAll(ctx)
	if !f.nodes[0].Alive("gw-2") {
		t.Fatal("gw-2 should be alive after a heartbeat round")
	}

	if err := f.net.KillHost("gw-2"); err != nil {
		t.Fatal(err)
	}
	// suspectAfter is 3 ticks: run the survivors past it.
	for i := 0; i < 5; i++ {
		f.nodes[0].Tick(ctx)
		f.nodes[1].Tick(ctx)
	}
	if f.nodes[0].Alive("gw-2") {
		t.Fatal("gw-2 still alive after missing 5 ticks")
	}
	for _, addr := range f.nodes[0].AliveAddrs() {
		if addr == "gw-2" {
			t.Fatal("gw-2 still in the live view")
		}
	}
	// Placement must route around the dead member.
	moved := false
	for i := 0; i < 200; i++ {
		key := SubscriptionKey("app.echo", fmt.Sprintf("dev-%d", i))
		if h := f.nodes[0].Home(key); h == "gw-2" {
			t.Fatalf("key %s placed on dead member", key)
		} else if h != "" {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no keys placed at all")
	}

	// Eviction after evictAfter more ticks.
	for i := 0; i < 10; i++ {
		f.nodes[0].Tick(ctx)
		f.nodes[1].Tick(ctx)
	}
	for _, m := range f.nodes[0].Members() {
		if m.Addr == "gw-2" && m.State != StateLeft {
			t.Fatalf("gw-2 state %s after long silence, want %s", m.State, StateLeft)
		}
	}

	// Recovery: the member answers again and re-enters the view.
	if err := f.net.ReviveHost("gw-2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.tickAll(ctx)
	}
	if !f.nodes[0].Alive("gw-2") {
		t.Fatal("revived gw-2 did not rejoin the live view")
	}
}

// TestSuspicionSpreadsByGossip: only gw-0 can reach the network in
// time; gw-1 must learn of gw-2's eviction through gw-0's view.
func TestGossipSpreadsEviction(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	f.tickAll(ctx)
	if err := f.net.KillHost("gw-2"); err != nil {
		t.Fatal(err)
	}
	// Only gw-0 ticks: it suspects gw-2 on its own evidence; gw-1's
	// own clock barely advances (each reply it sends is not a tick).
	for i := 0; i < 5; i++ {
		f.nodes[0].Tick(ctx)
	}
	if f.nodes[0].Alive("gw-2") {
		t.Fatal("gw-0 did not suspect gw-2")
	}
	// One tick of gw-1 pulls gw-0's view (suspect state gossips in).
	f.nodes[1].Tick(ctx)
	f.nodes[1].Tick(ctx)
	if f.nodes[1].Alive("gw-2") {
		t.Fatal("suspicion did not spread to gw-1 by gossip")
	}
}

func TestLeaveImmediate(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	f.tickAll(ctx)
	f.nodes[2].Leave(ctx)
	// No further ticks needed: the leave broadcast updates peers now.
	if f.nodes[0].Alive("gw-2") || f.nodes[1].Alive("gw-2") {
		t.Fatal("peers still count a departed member as alive")
	}
	if f.nodes[2].Alive("gw-2") {
		t.Fatal("a leaving member counts itself alive")
	}
	if got := f.nodes[2].Home(SubscriptionKey("a", "b")); got == "gw-2" {
		t.Fatalf("leaving member still places keys on itself")
	}
}

func TestLoadAwareSpill(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	key := SubscriptionKey("app.echo", "alice")
	primary := f.nodes[0].Home(key)
	var pi int
	for i, a := range f.addrs {
		if a == primary {
			pi = i
		}
	}
	// The primary reports overload; after gossip, peers spill its keys.
	f.nodes[pi].SetLoadFunc(func() Load { return Load{InFlight: SpillThreshold + 1} })
	f.tickAll(ctx)
	f.tickAll(ctx)
	for _, n := range f.nodes {
		h := n.Home(key)
		if h == primary {
			t.Fatalf("node %s still homes %q on overloaded %s", n.Self(), key, primary)
		}
		if h == "" {
			t.Fatalf("node %s found no home", n.Self())
		}
	}
	// Overload clears -> placement returns to the primary.
	f.nodes[pi].SetLoadFunc(func() Load { return Load{} })
	f.tickAll(ctx)
	f.tickAll(ctx)
	for _, n := range f.nodes {
		if h := n.Home(key); h != primary {
			t.Fatalf("node %s homes %q on %s after overload cleared, want %s", n.Self(), key, h, primary)
		}
	}
}

func TestLocationReplication(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	// A location published on one member reaches the others
	// immediately (push) and by piggyback (gossip) for late joiners.
	f.nodes[0].PublishLocation(ctx, Location{AgentID: "ag-1", Addr: "bank-a", HomeGW: "gw-0", Seq: 2})
	for _, n := range f.nodes {
		loc, ok := n.Locations().Get("ag-1")
		if !ok || loc.Addr != "bank-a" {
			t.Fatalf("node %s location = %+v, %v", n.Self(), loc, ok)
		}
	}
	// Stale update (lower seq) must not regress any replica.
	f.nodes[1].PublishLocation(ctx, Location{AgentID: "ag-1", Addr: "gw-0", HomeGW: "gw-0", Seq: 1})
	for _, n := range f.nodes {
		if loc, _ := n.Locations().Get("ag-1"); loc.Addr != "bank-a" {
			t.Fatalf("node %s regressed to %q on a stale update", n.Self(), loc.Addr)
		}
	}
	// Fresher update wins everywhere.
	f.nodes[2].PublishLocation(ctx, Location{AgentID: "ag-1", Addr: "bank-b", Seq: 4})
	for _, n := range f.nodes {
		loc, _ := n.Locations().Get("ag-1")
		if loc.Addr != "bank-b" {
			t.Fatalf("node %s did not adopt the fresher pointer", n.Self())
		}
		if loc.HomeGW != "gw-0" {
			t.Fatalf("node %s lost the home gateway on a partial update: %+v", n.Self(), loc)
		}
	}
}

func TestForwarderLoopProtection(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()
	fw0 := f.nodes[0]
	fw1 := f.nodes[1]

	locBody := EncodeUpdate(Location{AgentID: "ag-x", Addr: "bank-a", Seq: 1})
	r1 := reqTo("/cluster/loc")
	r1.Body = locBody
	resp, err := fw0.Forward(ctx, "gw-1", r1)
	if err != nil || !resp.IsOK() {
		t.Fatalf("first hop: %v %v", err, resp)
	}
	if Forwarded(r1) {
		t.Fatal("Forward mutated the caller's request")
	}
	// Simulate gw-1 bouncing the same request back: the chain contains
	// gw-0, so the forward must refuse.
	r2 := reqTo("/cluster/loc")
	r2.Body = locBody
	r2.SetHeader("x-cluster-fwd", "gw-0")
	if _, err := fw1.Forward(ctx, "gw-0", r2); err == nil {
		t.Fatal("loop not refused")
	}
	// And chains at the bound are refused outright.
	r3 := reqTo("/cluster/loc")
	r3.Body = locBody
	r3.SetHeader("x-cluster-fwd", "a,b,c,d")
	if _, err := fw0.Forward(ctx, "gw-1", r3); err == nil {
		t.Fatal("over-long chain not refused")
	}
}

// TestClusterEndpointsRequireToken: the /cluster/ endpoints live on
// the public listener and transport headers are client-settable, so a
// request without the shared secret must be refused even when it
// carries a plausible hop chain — the chain alone is not trust.
func TestClusterEndpointsRequireToken(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()
	rt := f.net.Transport(netsim.ZoneWired)

	hb := f.nodes[0].viewDoc()
	for _, path := range []string{"/cluster/heartbeat", "/cluster/loc"} {
		req := &transport.Request{Path: path, Body: hb}
		req.SetHeader("x-cluster-fwd", "gw-0") // forged chain
		resp, err := rt.RoundTrip(ctx, "gw-1", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != transport.StatusForbidden {
			t.Fatalf("%s without token: status %d, want %d", path, resp.Status, transport.StatusForbidden)
		}
		req.SetHeader("x-cluster-token", "wrong-secret")
		resp, err = rt.RoundTrip(ctx, "gw-1", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != transport.StatusForbidden {
			t.Fatalf("%s with wrong token: status %d, want %d", path, resp.Status, transport.StatusForbidden)
		}
	}
	// The real forwarder (which stamps the right token) still works.
	locReq := &transport.Request{Path: "/cluster/loc", Body: EncodeUpdate(Location{AgentID: "a", Addr: "b", Seq: 1})}
	resp, err := f.nodes[0].Forward(ctx, "gw-1", locReq)
	if err != nil || !resp.IsOK() {
		t.Fatalf("authorised push refused: %v %v", err, resp)
	}
}

// TestTenantUsageGossipConvergence: each member reports its own
// per-tenant usage; after a gossip round every member's remote sum
// covers the rest of the cluster, and a member's updated tallies
// replace (not accumulate with) its previous rows.
func TestTenantUsageGossipConvergence(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	for i, n := range f.nodes {
		i := i
		n.SetTenantUsageFunc(func() []TenantUsage {
			return []TenantUsage{
				{Tenant: "acme", InFlight: int64(i + 1), MailboxBytes: 100},
				{Tenant: "default", Residents: 10},
			}
		})
	}
	f.tickAll(ctx)
	f.tickAll(ctx)
	for i, n := range f.nodes {
		got := n.RemoteTenantUsage()
		// Remote sum excludes self: acme in-flight = 1+2+3 minus own.
		wantAcme := int64(6 - (i + 1))
		if got["acme"].InFlight != wantAcme {
			t.Fatalf("node %s remote acme in-flight = %d, want %d", n.Self(), got["acme"].InFlight, wantAcme)
		}
		if got["acme"].MailboxBytes != 200 {
			t.Fatalf("node %s remote acme mailbox bytes = %d, want 200", n.Self(), got["acme"].MailboxBytes)
		}
		if got["default"].Residents != 20 {
			t.Fatalf("node %s remote default residents = %d, want 20", n.Self(), got["default"].Residents)
		}
	}
	// Updated tallies replace the old rows on the next heartbeat.
	f.nodes[2].SetTenantUsageFunc(func() []TenantUsage {
		return []TenantUsage{{Tenant: "acme", InFlight: 50}}
	})
	f.tickAll(ctx)
	got := f.nodes[0].RemoteTenantUsage()
	if got["acme"].InFlight != 2+50 {
		t.Fatalf("remote acme in-flight after update = %d, want 52", got["acme"].InFlight)
	}
	if got["default"].Residents != 10 {
		t.Fatalf("gw-2's dropped default row still counted: residents = %d, want 10", got["default"].Residents)
	}
	// An evicted member's usage stops counting toward cluster totals.
	if err := f.net.KillHost("gw-2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.nodes[0].Tick(ctx)
		f.nodes[1].Tick(ctx)
	}
	got = f.nodes[0].RemoteTenantUsage()
	if got["acme"].InFlight != 2 {
		t.Fatalf("evicted member still counted: acme in-flight = %d, want 2", got["acme"].InFlight)
	}
}

// TestConcurrentGossip exercises membership, placement and the
// location table under -race: concurrent ticks, publishes and reads.
func TestConcurrentGossip(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				n.Tick(ctx)
				n.PublishLocation(ctx, Location{
					AgentID: fmt.Sprintf("ag-%d-%d", i, r%5),
					Addr:    fmt.Sprintf("bank-%d", r%3),
					HomeGW:  n.Self(),
					Seq:     r,
				})
				_ = n.Home(SubscriptionKey("app.echo", fmt.Sprintf("dev-%d", r)))
				_ = n.AliveAddrs()
				n.SetTenantUsageFunc(func() []TenantUsage {
					return []TenantUsage{{Tenant: "acme", InFlight: int64(r)}}
				})
				_ = n.RemoteTenantUsage()
			}
		}(i, n)
	}
	wg.Wait()
	for _, n := range f.nodes {
		if got := len(n.AliveAddrs()); got != 3 {
			t.Fatalf("node %s ended with %d live members, want 3", n.Self(), got)
		}
	}
}

func reqTo(path string) *transport.Request { return &transport.Request{Path: path} }
