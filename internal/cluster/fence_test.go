package cluster

import (
	"context"
	"testing"

	"pdagent/internal/mas"
	"pdagent/internal/metrics"
	"pdagent/internal/netsim"
)

// TestFencedMemberLocationPushRefused: the fence covers location writes
// the way it covers heartbeats and forwarded requests. Once gw-2 is
// fenced at gw-0 and gw-1, neither its own location push nor a relay
// stamped as gw-2 at epoch 0 lands in their directories; a push from an
// instance that restarted at the fence epoch does.
func TestFencedMemberLocationPushRefused(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	fence := f.nodes[0].RaiseFence("gw-2")
	f.nodes[0].Tick(ctx) // the fence gossips to gw-1
	if got := f.nodes[1].FenceOf("gw-2"); got != fence {
		t.Fatalf("gw-1 holds fence %d for gw-2, want %d", got, fence)
	}

	f.nodes[2].PublishLocation(ctx, Location{AgentID: "ag-push", Addr: "bank-a", HomeGW: "gw-2", Seq: 2})
	relay := NewRelay(f.net.Transport(netsim.ZoneWired), "gw-2", "test-cluster-secret")
	relay.log = metrics.NewLogger("loc-relay", t.Logf)
	for _, home := range []string{"gw-0", "gw-1"} {
		relay.Send(ctx, mas.AgentMove{AgentID: "ag-relay-" + home, Addr: "bank-a", Home: home, Seq: 2})
	}
	for _, n := range f.nodes[:2] {
		for _, id := range []string{"ag-push", "ag-relay-gw-0", "ag-relay-gw-1"} {
			if loc, ok := n.Locations().Get(id); ok {
				t.Fatalf("%s took a location write from fenced gw-2: %+v", n.Self(), loc)
			}
		}
	}
	if got := relay.refused.Load(); got != 2 {
		t.Fatalf("relay refused %d times, want 2", got)
	}

	restarted := NewNode(Config{
		Self:      "gw-2",
		Seeds:     f.addrs,
		Transport: f.net.Transport(netsim.ZoneWired),
		Secret:    "test-cluster-secret",
		Epoch:     fence,
	})
	restarted.PublishLocation(ctx, Location{AgentID: "ag-push", Addr: "bank-b", HomeGW: "gw-2", Seq: 4})
	for _, n := range f.nodes[:2] {
		if loc, ok := n.Locations().Get("ag-push"); !ok || loc.Addr != "bank-b" {
			t.Fatalf("%s refused gw-2 at the fence epoch: %+v, %v", n.Self(), loc, ok)
		}
	}
}

// TestFencedZombieReplyIgnored: gw-0 has fenced gw-2 but not evicted
// it, so it still heartbeats gw-2, and the zombie — which vets gw-0's
// heartbeat as valid and answers it — replies stamped with its own
// epoch 0. That reply is neither merged (the member only the zombie
// knows stays unknown) nor counted as evidence (the tick counts one
// answer, and gw-2's evidence ages until gw-0 suspects it).
func TestFencedZombieReplyIgnored(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()
	f.tickAll(ctx)
	zombie := f.nodes[2]
	if err := zombie.merge([]byte(`<cluster-view from="gw-9" inc="0"><member addr="gw-9" inc="0" state="alive"/></cluster-view>`)); err != nil {
		t.Fatal(err)
	}
	gw0 := f.nodes[0]
	gw0.RaiseFence("gw-2")
	for tick := 1; tick <= suspectAfter+1; tick++ {
		if n := gw0.Tick(ctx); n != 1 {
			t.Fatalf("tick %d: %d peers answered, want 1 (gw-1; the zombie's reply is no evidence)", tick, n)
		}
	}
	for _, m := range gw0.Members() {
		switch {
		case m.Addr == "gw-9":
			t.Fatalf("gw-0 merged the zombie's view: it knows %+v", m)
		case m.Addr == "gw-2" && m.State != StateSuspect:
			t.Fatalf("gw-2 after %d ticks of zombie replies: %+v, want suspect", suspectAfter+1, m)
		}
	}
}
