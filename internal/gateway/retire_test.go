package gateway

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"pdagent/internal/mas"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// These tests cover the gateway's one retirement rule: the registry
// keeps at most mas.MaxRetired finished journeys, and the oldest leaves
// with its result document when one more finishes.

// known reports whether the registry still remembers id.
func known(r *Registry, id string) bool {
	_, ok := r.Agent(id)
	return ok
}

// echoer dispatches unsealed echo journeys for one owner.
func echoer(t *testing.T, f *fixture, owner string) func() string {
	t.Helper()
	sub := f.subscribe(t, "echo", owner)
	return func() string {
		t.Helper()
		pi := &wire.PackedInformation{CodeID: "echo", DispatchKey: pisec.DispatchKey("echo", sub.Secret),
			Owner: owner, Source: sub.Package.Source}
		resp := f.dispatchPI(t, pi, false)
		if !resp.IsOK() {
			t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
		}
		return resp.GetHeader("agent")
	}
}

// collectStatus is the status a device's collect of id is answered.
func collectStatus(t *testing.T, f *fixture, id string) int {
	t.Helper()
	req := &transport.Request{Path: "/pdagent/result"}
	req.SetHeader("agent", id)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Status
}

// TestRetirementBoundsRegistry: past mas.MaxRetired echo journeys a
// default gateway keeps the newest MaxRetired, entries and documents
// alike; the oldest's collect answers 404 and the metric counts what
// retired.
func TestRetirementBoundsRegistry(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	echo := echoer(t, f, "dev-1")
	const extra = 200
	var oldest, newest string
	for i := 0; i < mas.MaxRetired+extra; i++ {
		newest = echo()
		if i == 0 {
			oldest = newest
		}
	}
	f.queue.Drain()
	reg := f.gw.Registry()
	if n, limit := reg.NumAgents(), mas.MaxRetired+reg.InFlight(); n > limit {
		t.Fatalf("registry holds %d agents, want at most %d", n, limit)
	}
	if n, _ := f.docs.NumRecords(); n > mas.MaxRetired {
		t.Fatalf("File Directory holds %d documents, want at most %d", n, mas.MaxRetired)
	}
	if got := collectStatus(t, f, newest); got != transport.StatusOK {
		t.Fatalf("collect of the newest journey answered %d", got)
	}
	if got := collectStatus(t, f, oldest); got != transport.StatusNotFound {
		t.Fatalf("collect of the oldest journey answered %d, want 404", got)
	}
	if !strings.Contains(string(f.gw.Metrics().AppendPrometheus(nil)), "\npdagent_results_retired 200\n") {
		t.Fatalf("scrape lacks pdagent_results_retired 200")
	}
}

// TestInFlightAgentOutlivesRetirement: retirement takes finished
// journeys only; an agent still travelling survives any number of
// completions around it and collects once home.
func TestInFlightAgentOutlivesRetirement(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	f.addSlowEcho(t)
	traveller := dispatchCode(t, f, "slow", "dev-1")
	echo := echoer(t, f, "dev-2")
	for i := 0; i < 10_000; i++ {
		echo()
	}
	if st, ok := f.gw.Registry().Agent(traveller); !ok || st.Done || st.Gone {
		t.Fatalf("travelling agent after 10,000 completions: %+v, known %v", st, ok)
	}
	f.queue.Drain()
	if got := collectStatus(t, f, traveller); got != transport.StatusOK {
		t.Fatalf("collect of the traveller answered %d", got)
	}
}

// TestLateAdoptionRetiresOnce: a retired id completed again (a late
// result adopted) is known until it retires again, enters the FIFO once
// for it, and leaves no in-flight count behind on its tenant.
func TestLateAdoptionRetiresOnce(t *testing.T) {
	docs := rms.NewMemStore("docs", 0)
	r := NewRegistry(docs)
	finish := func(id, tenantID string) {
		t.Helper()
		doc, err := docs.Add([]byte(id))
		if err != nil {
			t.Fatal(err)
		}
		r.CreateAgent(id, "echo", "dev", tenantID, "", "")
		r.CompleteAgent(id, "echo", "dev", doc, "")
	}
	filed := func(id string) int {
		n := 0
		for _, x := range r.retired {
			if x == id {
				n++
			}
		}
		return n
	}
	others := 0
	churn := func() {
		for i := 0; i < mas.MaxRetired; i++ {
			others++
			finish("other-"+strconv.Itoa(others), tenant.DefaultID)
		}
	}
	finish("late", "acme")
	churn()
	if known(r, "late") {
		t.Fatal("late still known after MaxRetired later completions")
	}
	doc, _ := docs.Add([]byte("late, again"))
	r.CompleteAgent("late", "echo", "dev", doc, "") // adopted: the result came back after all
	r.CompleteAgent("late", "echo", "dev", doc, "") // a second copy changes nothing
	if st, ok := r.Agent("late"); !ok || !st.Done || st.DocID != doc {
		t.Fatalf("adopted late result: %+v, known %v", st, ok)
	}
	if n := filed("late"); n != 1 {
		t.Fatalf("late filed %d times, want once", n)
	}
	churn()
	if known(r, "late") || filed("late") != 0 {
		t.Fatal("late not retired again")
	}
	if n, _ := docs.NumRecords(); n != mas.MaxRetired || r.NumAgents() != mas.MaxRetired {
		t.Fatalf("%d documents, %d agents; want %d each", n, r.NumAgents(), mas.MaxRetired)
	}
	if r.InFlight() != 0 || r.ledger.InFlight("acme") != 0 || r.ledger.InFlight(tenant.DefaultID) != 0 {
		t.Fatalf("in flight at quiescence: %d, acme %d, default %d", r.InFlight(), r.ledger.InFlight("acme"), r.ledger.InFlight(tenant.DefaultID))
	}
}

// TestReleaseAgentQueuesTombstone: a disposal tombstone rides the same
// retirement FIFO as a completed journey: the released agent stays
// known as gone until mas.MaxRetired later journeys finish, then leaves.
func TestReleaseAgentQueuesTombstone(t *testing.T) {
	docs := rms.NewMemStore("docs", 0)
	r := NewRegistry(docs)
	r.CreateAgent("a1", "echo", "dev", tenant.DefaultID, "", "")
	if !r.ReleaseAgent("a1", "disposed by owner") {
		t.Fatal("release failed")
	}
	if st, ok := r.Agent("a1"); !ok || !st.Gone {
		t.Fatalf("disposal tombstone: %+v, known %v", st, ok)
	}
	if r.InFlight() != 0 {
		t.Fatalf("in flight after release: %d", r.InFlight())
	}
	for i := 1; i < mas.MaxRetired; i++ {
		id := "other-" + strconv.Itoa(i)
		doc, err := docs.Add([]byte(id))
		if err != nil {
			t.Fatal(err)
		}
		r.CreateAgent(id, "echo", "dev", tenant.DefaultID, "", "")
		r.CompleteAgent(id, "echo", "dev", doc, "")
	}
	if !known(r, "a1") {
		t.Fatal("disposal tombstone vanished before the FIFO filled")
	}
	doc, _ := docs.Add([]byte("last"))
	r.CreateAgent("last", "echo", "dev", tenant.DefaultID, "", "")
	r.CompleteAgent("last", "echo", "dev", doc, "")
	if known(r, "a1") {
		t.Fatal("agent still known after mas.MaxRetired later completions")
	}
	if r.NumAgents() != mas.MaxRetired {
		t.Fatalf("registry holds %d agents, want %d", r.NumAgents(), mas.MaxRetired)
	}
}
