package gateway

import (
	"context"
	"strings"
	"testing"

	"pdagent/internal/atp"
	"pdagent/internal/mas"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// TestChaseFindsTravellerPastRetirementCap: the home MAS keeps an agent's
// first forwarding pointer while the agent travels, however many other
// journeys finish there — the status chase starts from it. An agent
// parked at a bank is found after more journeys than the home remembers
// finished agents (4,096) have come and gone, and the home holds no
// more records than that cap plus the traveller.
func TestChaseFindsTravellerPastRetirementCap(t *testing.T) {
	const retained = 4096 // the mas retirement ring's cap
	f := newFixture(t)
	bank, err := mas.NewServer(mas.Config{
		Addr: "bank-a", Codec: atp.AgletsCodec{}, Transport: f.net.Transport(netsim.ZoneWired),
		Spawn: f.queue.Go, Journal: rms.NewMemStore("journal-bank-a", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.net.AddHost("bank-a", netsim.ZoneWired, bank.Handler())
	f.addPackage(t, "tour", `migrate("bank-a"); migrate("nowhere"); deliver("x", 1);`)
	f.addEcho(t)
	dispatch := func(sub *wire.Subscription) string {
		codeID := sub.Package.CodeID
		resp := f.dispatchPI(t, &wire.PackedInformation{
			CodeID: codeID, DispatchKey: pisec.DispatchKey(codeID, sub.Secret), Owner: "dev-1", Source: sub.Package.Source,
		}, false)
		if !resp.IsOK() {
			t.Fatalf("dispatch %s: %d %s", codeID, resp.Status, resp.Text())
		}
		return resp.Text()
	}

	traveller := dispatch(f.subscribe(t, "tour", "dev-1"))
	f.queue.Drain()
	if got := bank.AgentStates()[traveller]; got != mas.StateParked {
		t.Fatalf("traveller at bank-a is %q, want parked (its next hop is unreachable)", got)
	}
	echo := f.subscribe(t, "echo", "dev-1")
	for i := 0; i < retained+8; i++ {
		dispatch(echo)
	}
	f.queue.Drain()
	if n := len(f.gw.MAS().AgentStates()); n > retained+1 {
		t.Fatalf("home MAS holds %d records, want at most %d retired plus the traveller", n, retained)
	}

	req := &transport.Request{Path: "/pdagent/status"}
	req.SetHeader("agent", traveller)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsOK() || resp.GetHeader("agent-host") != "bank-a" || !strings.Contains(string(resp.Body), `state="parked"`) {
		t.Fatalf("status of the traveller: %d host %q %s; want it found parked at bank-a", resp.Status, resp.GetHeader("agent-host"), resp.Body)
	}
}
