package gateway

import (
	"context"
	"testing"

	"pdagent/internal/cluster"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
)

// TestPromoteOverOnce: of three members, the one holding a dead
// member's replicas promotes over it exactly once — it raises the fence,
// adopts the journaled agent and imports the mailbox — while a second
// call, and a member that holds no replica, adopt nothing.
func TestPromoteOverOnce(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(6)
	wired := net.Transport(netsim.ZoneWired)
	addrs := []string{"gw-dead", "gw-standby", "gw-other"}
	var queue netsim.Queue
	gws := map[string]*Gateway{}
	for _, addr := range addrs {
		node := cluster.NewNode(cluster.Config{Self: addr, Seeds: addrs, Transport: wired, Secret: "promote-secret"})
		gw, err := New(Config{
			Addr:      addr,
			KeyPair:   testKeyPair(t),
			Transport: wired,
			Spawn:     queue.Go,
			Journal:   rms.NewMemStore("journal-"+addr, 0),
			Mailbox:   &MailboxConfig{Store: rms.NewMemStore("mailbox-"+addr, 0)},
			Cluster:   node,
			Repl: repl.NewPeer(repl.Config{
				Self: addr, Transport: wired, Identity: node,
				StandbyFn: func() string { return "gw-standby" },
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		net.AddHost(addr, netsim.ZoneWired, gw.Handler())
		gws[addr] = gw
	}

	// The dead member's state: one journaled agent, parked because its
	// next host does not exist, and one device's mail.
	dead := gws["gw-dead"]
	prog, err := mascript.Compile(`migrate("nowhere"); deliver("x", 1);`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-dead-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.MAS().AdmitAgent(ctx, vm, "code-1", "dev-1", tenant.DefaultID, "gw-dead"); err != nil {
		t.Fatal(err)
	}
	queue.Drain()
	dead.Mailbox().Touch("dev-1")
	if _, _, err := dead.Mailbox().Enqueue("dev-1", push.KindResult, "ag-dead-1", "r:1", []byte("mail")); err != nil {
		t.Fatal(err)
	}
	dead.cfg.Repl.Flush(ctx)
	if err := net.KillHost("gw-dead"); err != nil {
		t.Fatal(err)
	}

	other, standby := gws["gw-other"], gws["gw-standby"]
	if p, err := other.PromoteOver(ctx, "gw-dead"); p != nil || err != nil {
		t.Fatalf("a member without the replica promoted: %+v, %v", p, err)
	}
	if f := other.cfg.Cluster.FenceOf("gw-dead"); f != 0 {
		t.Fatalf("a member without the replica raised the fence to %d", f)
	}
	p, err := standby.PromoteOver(ctx, "gw-dead")
	want := Promotion{Dead: "gw-dead", By: "gw-standby", Fence: 1, Agents: 1, Mailboxes: 1}
	if err != nil || p == nil || *p != want {
		t.Fatalf("standby's promotion = %+v, %v; want %+v", p, err, want)
	}
	if f := standby.cfg.Cluster.FenceOf("gw-dead"); f != 1 {
		t.Fatalf("fence over the dead member = %d, want 1", f)
	}
	if p, err := standby.PromoteOver(ctx, "gw-dead"); p != nil || err != nil {
		t.Fatalf("a second promotion adopted again: %+v, %v", p, err)
	}
	if f := standby.cfg.Cluster.FenceOf("gw-dead"); f != 1 {
		t.Fatalf("the second call moved the fence to %d", f)
	}
	queue.Drain()
	if _, ok := standby.MAS().AgentStates()["ag-dead-1"]; !ok {
		t.Fatal("the adopted agent is not on the standby")
	}
	if n := standby.Mailbox().Pending("dev-1"); n != 1 {
		t.Fatalf("the standby holds %d entries for dev-1, want the one imported", n)
	}
}
