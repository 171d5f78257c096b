package gateway

import (
	"context"
	"testing"

	"pdagent/internal/mas"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// dispatcher subscribes owner to codeID once and returns a function that
// dispatches one fresh, unsealed PI of it, answering the agent id.
func (f *fixture) dispatcher(t *testing.T, codeID, owner string) func() string {
	t.Helper()
	sub := f.subscribe(t, codeID, owner)
	return func() string {
		t.Helper()
		resp := f.dispatchPI(t, &wire.PackedInformation{
			CodeID:      codeID,
			DispatchKey: pisec.DispatchKey(codeID, sub.Secret),
			Owner:       owner,
			Source:      sub.Package.Source,
		}, false)
		if !resp.IsOK() {
			t.Fatalf("dispatch %s: %d %s", codeID, resp.Status, resp.Text())
		}
		return resp.Text()
	}
}

// TestUpkeepRetriesParkedDeparture: a journaled gateway whose bank is
// down when an agent's first hop leaves parks the agent; once the bank
// is back, one Upkeep round sets the journey moving and it delivers.
func TestUpkeepRetriesParkedDeparture(t *testing.T) {
	f := newFixtureCfg(t, func(c *Config) { c.Journal = rms.NewMemStore("journal", 0) })
	f.addPackage(t, "hop", `migrate("bank"); deliver("x", 1);`)
	id := f.dispatcher(t, "hop", "dev-1")()
	f.queue.Drain()
	home := f.gw.MAS()
	if st := home.AgentStates()[id]; st != mas.StateParked {
		t.Fatalf("with the bank down the agent is %q, want parked", st)
	}
	if n := home.Upkeep(context.Background()); n != 1 {
		t.Fatalf("Upkeep with the bank still down retried %d, want 1", n)
	}
	f.queue.Drain()
	if st := home.AgentStates()[id]; st != mas.StateParked {
		t.Fatalf("after a retry into a dead bank the agent is %q, want parked again", st)
	}

	f.addSite(t, "bank")
	if n := home.Upkeep(context.Background()); n != 1 {
		t.Fatalf("Upkeep retried %d parked transfer(s), want 1", n)
	}
	f.queue.Drain()
	resp, err := collectResult(f.tr, "gw-t", id)
	if err != nil || !resp.IsOK() {
		t.Fatalf("result after the retry: %v %v", resp, err)
	}
	rd, err := wire.ParseResultDocument(resp.Body)
	if err != nil || !rd.OK() || rd.Hops != 1 {
		t.Fatalf("result doc: %+v (%v), want done after its one hop", rd, err)
	}
	if n := home.Upkeep(context.Background()); n != 0 {
		t.Fatalf("Upkeep after delivery retried %d, want 0", n)
	}
}

// TestOwnerDisposeRetiresHomeDeparture: an owner's dispose of an agent
// away from home retires the departure record its home MAS keeps, so the
// retirement ring's cap (4,096 finished agents) forgets it like any
// other finished agent, instead of keeping it for ever.
func TestOwnerDisposeRetiresHomeDeparture(t *testing.T) {
	f := newFixture(t)
	f.addSite(t, "site-1")
	f.addPackage(t, "loop", `migrate("site-1"); let n = 0; while true { n = n + 1; }`)
	id := f.dispatcher(t, "loop", "dev-1")()
	// One step runs the home loop: the agent leaves for site-1, which
	// runs its first slice and queues the rest of the loop.
	f.queue.Step()
	home := f.gw.MAS()
	if st := home.AgentStates()[id]; st != mas.StateDeparted {
		t.Fatalf("home record %q, want departed", st)
	}
	req := &transport.Request{Path: "/pdagent/manage/dispose"}
	req.SetHeader("agent", id)
	if resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req); err != nil || !resp.IsOK() {
		t.Fatalf("dispose: %v %v", resp, err)
	}
	f.queue.Drain()

	f.addEcho(t)
	echo := f.dispatcher(t, "echo", "dev-1")
	const retiredCap = 4096 // the mas retirement ring's cap
	for i := 0; i < retiredCap; i++ {
		echo()
	}
	if st, ok := home.AgentStates()[id]; ok {
		t.Fatalf("after %d later journeys the home still holds the disposed agent (%q)", retiredCap, st)
	}
}
