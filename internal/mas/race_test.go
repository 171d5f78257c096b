package mas

import (
	"context"
	"fmt"
	"testing"

	"pdagent/internal/atp"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// directTransport routes addresses straight to handlers on the calling
// goroutine — no queue, no latency. Combined with an inline Spawn it
// makes the receiver run a visiting agent's whole residency INSIDE the
// sender's RoundTrip call, which is the worst-case ordering the
// program-cache fast path exposed: the agent is back at the sender
// before the sender's own transfer call has even returned.
type directTransport struct{ hosts map[string]transport.Handler }

func (d *directTransport) RoundTrip(_ context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	h, ok := d.hosts[addr]
	if !ok {
		return nil, fmt.Errorf("directTransport: no host %q", addr)
	}
	return h.Serve(context.Background(), req), nil
}

// TestFastHopReturnsBeforeSenderBookkeeping is the regression test for
// the departure race: an agent whose next hop is fast (cached program,
// local service) returns home while the home server is still inside
// its transfer RoundTrip. The homecoming transfer must be admitted —
// the sender marks the record departed before the image leaves — and
// the journey must complete normally instead of bouncing off a
// "already running here" conflict and stranding.
func TestFastHopReturnsBeforeSenderBookkeeping(t *testing.T) {
	inline := func(fn func()) { fn() }
	tr := &directTransport{hosts: map[string]transport.Handler{}}
	codec, err := atp.ByName("aglets")
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []*Arrival
	home, err := NewServer(Config{
		Addr: "gw-0", Codec: codec, Transport: tr, Spawn: inline,
		OnAgentHome: func(_ context.Context, a *Arrival) error { arrivals = append(arrivals, a); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	siteJournal := rms.NewMemStore("site-journal", 0)
	site, err := NewServer(Config{
		Addr: "site-1", Codec: codec, Transport: tr, Spawn: inline,
		Journal: siteJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.hosts["gw-0"] = home.Handler()
	tr.hosts["site-1"] = site.Handler()

	prog, err := mascript.Compile(`migrate("site-1"); migrate("gw-0"); deliver("ok", 42);`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-race-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	// With inline spawn everywhere, the entire three-hop journey runs
	// inside AdmitAgent; the homecoming migrate arrives at gw-0 while
	// gw-0's shipAgent frame for hop 1 is still on the stack below us.
	if err := home.AdmitAgent(context.Background(), vm, "app.race", "dev", "gw-0"); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1 {
		t.Fatalf("journey did not come home: %d arrivals, home states %v, site states %v",
			len(arrivals), home.AgentStates(), site.AgentStates())
	}
	if arrivals[0].Kind != KindDone {
		t.Fatalf("journey came home %q (err %q), want done", arrivals[0].Kind, arrivals[0].VM.FailMsg())
	}
	if len(arrivals[0].VM.Results) != 1 || arrivals[0].VM.Results[0].Key != "ok" {
		t.Fatalf("results = %+v", arrivals[0].VM.Results)
	}

	// The intermediate host's journal must record the agent as departed
	// (a tombstone), never as a stale resident copy: a replacement
	// server over the same store resumes zero agents.
	site.Kill()
	replacement, err := NewServer(Config{
		Addr: "site-1", Codec: codec, Transport: tr, Spawn: inline,
		Journal: siteJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := replacement.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replacement resumed %d agent(s), want 0 (agent left site-1)", n)
	}
}

// TestRevisitedHostJournalStaysCoherent drives an itinerary that comes
// back to the same journaled host twice (gw-0 → site-1 → gw-0 → site-1
// → gw-0, all inline): the second residency at site-1 begins while the
// first departure's bookkeeping frame is still pending on the stack.
// The superseded frame must not tombstone the newer record — after the
// journey, the site's journal must show the agent departed exactly
// once and resume nothing.
func TestRevisitedHostJournalStaysCoherent(t *testing.T) {
	inline := func(fn func()) { fn() }
	tr := &directTransport{hosts: map[string]transport.Handler{}}
	codec, err := atp.ByName("aglets")
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []*Arrival
	home, err := NewServer(Config{
		Addr: "gw-0", Codec: codec, Transport: tr, Spawn: inline,
		OnAgentHome: func(_ context.Context, a *Arrival) error { arrivals = append(arrivals, a); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	siteJournal := rms.NewMemStore("site-journal", 0)
	site, err := NewServer(Config{
		Addr: "site-1", Codec: codec, Transport: tr, Spawn: inline,
		Journal: siteJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.hosts["gw-0"] = home.Handler()
	tr.hosts["site-1"] = site.Handler()

	prog, err := mascript.Compile(
		`migrate("site-1"); migrate("gw-0"); migrate("site-1"); migrate("gw-0"); deliver("laps", 2);`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-race-2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := home.AdmitAgent(context.Background(), vm, "app.race", "dev", "gw-0"); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1 || arrivals[0].Kind != KindDone {
		t.Fatalf("arrivals = %d, want 1 done journey", len(arrivals))
	}
	if arrivals[0].VM.Hops != 4 {
		t.Fatalf("hops = %d, want 4", arrivals[0].VM.Hops)
	}

	entries, err := site.jr.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.ID == "ag-race-2" && !e.tombstone() {
			t.Fatalf("site journal still holds a live copy of the departed agent: state %q", e.State)
		}
	}
	site.Kill()
	replacement, err := NewServer(Config{
		Addr: "site-1", Codec: codec, Transport: tr, Spawn: inline,
		Journal: siteJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := replacement.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replacement resumed %d agent(s), want 0", n)
	}
}
