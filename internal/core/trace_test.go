package core

import (
	"context"
	"testing"

	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// TestTraceReconstructsForwardedJourney is the PR-9 acceptance test
// for itinerary tracing: a dispatch uploaded at an edge member,
// forwarded to its consistent-hash home, executed across bank MAS
// hosts (which are NOT cluster members) and relayed back must be
// reconstructible end to end from a single /pdagent/trace/{agent-id}
// request at the edge — the edge's own spans, the home member's spans
// and the bank hosts' spans, each asked for its local share of the
// same /pdagent/trace/{agent-id} (the hosts chased along the
// transfer-out hops).
func TestTraceReconstructsForwardedJourney(t *testing.T) {
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
	w.Run()

	edgeGW := w.Gateways[w.gatewayIndex(edge)]
	resp := edgeGW.Handler().Serve(context.Background(), &transport.Request{
		Path: "/pdagent/trace/" + agentID,
	})
	if !resp.IsOK() {
		t.Fatalf("trace fetch: %d %s", resp.Status, resp.Text())
	}
	td, err := wire.ParseTrace(resp.Body)
	if err != nil {
		t.Fatalf("parsing trace doc: %v", err)
	}
	if td.TraceID != agentID {
		t.Fatalf("trace id = %q, want %q", td.TraceID, agentID)
	}

	members := map[string]bool{}
	ops := map[string]int{}
	for i, sp := range td.Spans {
		if sp.Member == "" || sp.Op == "" {
			t.Fatalf("span %d missing member/op: %+v", i, sp)
		}
		if i > 0 && sp.At < td.Spans[i-1].At {
			t.Fatalf("spans not At-ordered at %d: %d after %d", i, sp.At, td.Spans[i-1].At)
		}
		members[sp.Member] = true
		ops[sp.Op]++
	}

	// The journey touched at least the edge, the home member, and one
	// bank host — three distinct recording members, one of which is
	// reachable only by chasing the itinerary (banks are not cluster
	// members).
	if len(members) < 3 {
		t.Fatalf("trace covers %d members (%v), want >= 3", len(members), members)
	}
	if !members[edge] || !members[home] {
		t.Fatalf("trace missing edge/home spans: %v", members)
	}
	bankSeen := false
	for _, b := range []string{"bank-a", "bank-b"} {
		if members[b] {
			bankSeen = true
		}
	}
	if !bankSeen {
		t.Fatalf("trace has no bank-host spans (chase failed): %v", members)
	}

	// Every hop kind the forwarded journey performs must be present:
	// the edge's dispatch+forward, the home's admit, the travel
	// (transfer-out at each departure, transfer-in at each MAS host),
	// delivery, the result at home, its relay to the edge, the edge's
	// adoption, and the mailbox enqueue.
	for _, op := range []string{
		"dispatch", "forward", "admit",
		"transfer-out", "transfer-in", "deliver",
		"result", "relay-result", "adopt-result", "mailbox",
	} {
		if ops[op] == 0 {
			t.Errorf("trace missing op %q (ops seen: %v)", op, ops)
		}
	}
	// The agent visited two banks and came home: at least three
	// transfer-out hops (home→bank-a, bank-a→bank-b, bank-b→home).
	if ops["transfer-out"] < 3 {
		t.Errorf("transfer-out count = %d, want >= 3", ops["transfer-out"])
	}

	// The same itinerary asked of the home member local-only must be a
	// strict subset: scope=local answers from one ring.
	lreq := &transport.Request{Path: "/pdagent/trace/" + agentID}
	lreq.SetHeader("scope", "local")
	lresp := edgeGW.Handler().Serve(context.Background(), lreq)
	if !lresp.IsOK() {
		t.Fatalf("local trace fetch: %d %s", lresp.Status, lresp.Text())
	}
	ltd, err := wire.ParseTrace(lresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ltd.Spans) >= len(td.Spans) {
		t.Fatalf("local scope returned %d spans, full reconstruction %d — chase added nothing",
			len(ltd.Spans), len(td.Spans))
	}
	for _, sp := range ltd.Spans {
		if sp.Member != edge {
			t.Fatalf("scope=local leaked a foreign span: %+v", sp)
		}
	}
}
