package core

import (
	"fmt"
	"testing"

	"pdagent/internal/cluster"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/transport"
)

// These tests drive the warm-standby replication subsystem (DESIGN.md
// §10) end to end through SimWorld: a member dies WITH its disk, the
// standby promotes, and the dead member's agents and mailboxes carry
// on — exactly once. The zombie test proves the other half: a fenced
// ex-primary cannot write anything back into the fleet.

// ownerHomedAt finds a device owner whose e-banking subscription key
// hashes home to addr, so one member holds both the agent journal and
// the device mailbox — the worst member to lose.
func ownerHomedAt(t *testing.T, w *SimWorld, addr string) string {
	t.Helper()
	for i := 0; i < 1024; i++ {
		o := fmt.Sprintf("user-%d", i)
		if w.Nodes[0].Home(cluster.SubscriptionKey(AppEBanking, o)) == addr {
			return o
		}
	}
	t.Fatalf("no owner homed at %s", addr)
	return ""
}

// promoteOverDead ticks the cluster until the fleet evicts the dead
// member and a standby promotes, returning the promotion record.
func promoteOverDead(t *testing.T, w *SimWorld, dead string) Promotion {
	t.Helper()
	ctx, _ := w.NewJourney()
	for i := 0; i < 12 && len(w.Promotions()) == 0; i++ {
		w.TickCluster(ctx)
		w.Run()
	}
	proms := w.Promotions()
	if len(proms) != 1 || proms[0].Dead != dead {
		t.Fatalf("promotions = %+v, want exactly one over %s", proms, dead)
	}
	return proms[0]
}

// TestReplicatePromotionAfterDiskLoss is the §10 acceptance drill in
// miniature: semi-sync replication, the member holding a device's
// journal AND mailbox dies losing its disk entirely, the ring-successor
// standby promotes, and the reconnecting device receives its result
// exactly once from the adopter — the ledgers prove the journey itself
// also ran exactly once. A member whose journal lives in memory streams
// it all the same, so the drill holds without a durable journal too.
func TestReplicatePromotionAfterDiskLoss(t *testing.T) {
	for _, journal := range []bool{true, false} {
		t.Run(fmt.Sprintf("journal=%v", journal), func(t *testing.T) {
			replicatePromotionAfterDiskLoss(t, journal)
		})
	}
}

func replicatePromotionAfterDiskLoss(t *testing.T, journal bool) {
	w := clusterWorld(t, SimConfig{
		Seed: 61, Journal: journal,
		Replicate: true, ReplMode: repl.ModeSemiSync,
	})
	defer w.Close()
	ctx, _ := w.NewJourney()
	victim := "gw-1"
	owner := ownerHomedAt(t, w, victim)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, victim, AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DisconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	// The disk dies while the agent is still resident at the victim —
	// its journey has not even started. Semi-sync: every acked commit
	// (the journaled admission, the device's mailbox record) is already
	// on the standby; nothing is pending.
	if n := w.Repls[w.gatewayIndex(victim)].PendingOps(); n != 0 {
		t.Fatalf("semi-sync left %d ops pending", n)
	}
	standby := w.Nodes[w.gatewayIndex("gw-0")].StandbyFor(victim)

	if err := w.CrashGatewayLosingDisk(victim); err != nil {
		t.Fatal(err)
	}
	prom := promoteOverDead(t, w, victim)
	if prom.By != standby {
		t.Fatalf("promoted by %s, want ring successor %s", prom.By, standby)
	}
	if prom.Agents == 0 || prom.Mailboxes == 0 {
		t.Fatalf("promotion adopted %d agents, %d mailboxes; want both > 0", prom.Agents, prom.Mailboxes)
	}
	w.Run() // the adopted journey runs to completion from the adopter

	// The reconnecting device collects from the adopter, exactly once.
	if err := w.ReconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSessionAt(ctx, prom.By)
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	for _, d := range s.Deliveries {
		if d.Kind == push.KindResult && d.AgentID == agentID {
			results++
			if d.Result == nil || !d.Result.OK() {
				t.Fatalf("bad result delivery: %+v", d)
			}
		}
	}
	if results != 1 {
		t.Fatalf("received %d results after promotion, want exactly 1 (%+v)", results, s.Deliveries)
	}
	if s2, _ := dev.OpenSessionAt(ctx, prom.By); len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery after promotion: %+v", s2.Deliveries)
	}
	for _, b := range []string{"bank-a", "bank-b"} {
		bal, _ := w.Banks[b].Balance("alice")
		if bal != 10_000-10 {
			t.Errorf("%s alice = %d, want %d", b, bal, 10_000-10)
		}
	}
}

// TestZombieExPrimaryFenced proves the split-brain half of §10: an
// evicted member that comes back on the network with its old identity
// (same process state, same epoch) cannot write anything — its
// replication stream, its forwarded dispatches and its public dispatch
// endpoint are all refused by the fencing epoch, and it learns it is
// fenced from the first refused heartbeat.
func TestZombieExPrimaryFenced(t *testing.T) {
	w := clusterWorld(t, SimConfig{
		Seed: 67, Journal: true, Replicate: true, // async
	})
	defer w.Close()
	ctx, _ := w.NewJourney()
	victim := "gw-2"
	vi := w.gatewayIndex(victim)
	owner := ownerHomedAt(t, w, victim)
	dev := deviceAt(t, w, owner)
	if err := dev.Subscribe(ctx, victim, AppEBanking); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1)); err != nil {
		t.Fatal(err)
	}
	w.Run()
	w.TickCluster(ctx) // async flush: the standby now holds the replica

	// A second journey whose commits stay in the unflushed async window.
	agent2, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-b"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DisconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	w.Run()
	window := w.Repls[vi].PendingOps()
	if window == 0 {
		t.Fatal("no pending async window to lose")
	}

	if err := w.CrashGateway(victim); err != nil {
		t.Fatal(err)
	}
	prom := promoteOverDead(t, w, victim)
	adopter := w.gatewayIndex(prom.By)

	// The zombie rises: same instance, same handler, stale epoch.
	if err := w.Net.ReviveHost(victim); err != nil {
		t.Fatal(err)
	}
	zombie := w.Nodes[vi]
	zombie.Tick(ctx) // heartbeats refused fleet-wide; the refusals carry the fence
	if !zombie.Fenced() {
		t.Fatal("zombie did not learn it is fenced from refused heartbeats")
	}

	// Its replication stream is refused: the flush neither recreates a
	// replica at the adopter nor acks the buffered window.
	w.Repls[vi].Flush(ctx)
	if w.Repls[adopter].Has(victim) {
		t.Fatal("zombie stream recreated a replica at the adopter")
	}
	if n := w.Repls[vi].PendingOps(); n != window {
		t.Fatalf("zombie flush acked ops: pending %d, want %d", n, window)
	}

	// Its forwarded writes are refused by the epoch check...
	req := &transport.Request{Path: "/cluster/dispatch", Body: []byte("<whatever/>")}
	req.SetHeader("x-cluster-fwd", victim)
	zombie.Stamp(req)
	resp, err := w.Transport("wired").RoundTrip(ctx, prom.By, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusForbidden {
		t.Fatalf("zombie forward: status %d, want %d", resp.Status, transport.StatusForbidden)
	}
	// ...and its own public dispatch endpoint refuses new work (the
	// self-fence latch makes the gateway report unhealthy).
	resp, err = w.Transport("wired").RoundTrip(ctx, victim, &transport.Request{Path: "/pdagent/dispatch"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusUnavailable {
		t.Fatalf("zombie /pdagent/dispatch: status %d, want %d", resp.Status, transport.StatusUnavailable)
	}

	// No double delivery: the adopter serves the replicated result
	// exactly once; the in-window journey is lost (bounded by the async
	// window sampled at the crash), never duplicated.
	if err := w.ReconnectDevice(owner); err != nil {
		t.Fatal(err)
	}
	s, err := dev.OpenSessionAt(ctx, prom.By)
	if err != nil {
		t.Fatal(err)
	}
	byAgent := map[string]int{}
	for _, d := range s.Deliveries {
		if d.Kind == push.KindResult {
			byAgent[d.AgentID]++
		}
	}
	for id, n := range byAgent {
		if n != 1 {
			t.Fatalf("agent %s delivered %d times", id, n)
		}
	}
	if byAgent[agent2] > 1 {
		t.Fatalf("in-window journey %s duplicated", agent2)
	}
	if s2, _ := dev.OpenSessionAt(ctx, prom.By); len(s2.Deliveries) != 0 {
		t.Fatalf("redelivery: %+v", s2.Deliveries)
	}
}
