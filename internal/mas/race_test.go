package mas

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// gateStore stalls its nth commit (1-based) until released.
type gateStore struct {
	rms.Store
	nth              int64
	seen             atomic.Int64
	entered, release chan struct{}
}

func (g *gateStore) gate() {
	if g.seen.Add(1) == g.nth {
		close(g.entered)
		<-g.release
	}
}

func (g *gateStore) Add(data []byte) (int, error) {
	g.gate()
	return g.Store.Add(data)
}

func (g *gateStore) Set(id int, data []byte) error {
	g.gate()
	return g.Store.Set(id, data)
}

func (g *gateStore) Delete(id int) error {
	g.gate()
	return g.Store.Delete(id)
}

func (g *gateStore) Apply(ops []rms.Op) ([]int, error) {
	g.gate()
	return g.Store.Apply(ops)
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

	// The same lap against a journaled sender whose disk stalls inside its
	// departure bookkeeping (the drop of the record it shipped): the agent
	// is back at the door before that write lands. The homecoming must
	// wait for the write — refused instead, its sender's three zero-delay
	// retries lose to one fsync and the agent parks for a whole retry
	// interval — and the late write must not take the homecoming's own
	// journal entry with it.
	t.Run("sender's journal stalls in its bookkeeping", func(t *testing.T) {
		tr := &directTransport{hosts: map[string]transport.Handler{}}
		gs := &gateStore{
			Store: rms.NewMemStore("home-journal", 0), nth: 2, // 1: the admission's record
			entered: make(chan struct{}), release: make(chan struct{}),
		}
		var mu sync.Mutex
		var arrivals []*Arrival
		arrived := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(arrivals)
		}
		home, err := NewServer(Config{
			Addr: "gw-0", Codec: codec, Transport: tr, Journal: gs,
			OnAgentHome: func(_ context.Context, a *Arrival) error {
				mu.Lock()
				arrivals = append(arrivals, a)
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		site, err := NewServer(Config{
			Addr: "site-1", Codec: codec, Transport: tr,
			Journal: rms.NewMemStore("site-journal", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		// The homecoming is held at gw-0's door until gw-0 is inside the
		// stalled write, so it always meets the bookkeeping reservation.
		tr.hosts["gw-0"] = transport.HandlerFunc(func(ctx context.Context, req *transport.Request) *transport.Response {
			if req.Path == "/atp/transfer" {
				<-gs.entered
			}
			return home.Handler().Serve(ctx, req)
		})
		tr.hosts["site-1"] = site.Handler()
		vm, err := mavm.New(prog, "ag-race-3", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := home.AdmitAgent(context.Background(), vm, "app.race", "dev", "gw-0"); err != nil {
			t.Fatal(err)
		}
		<-gs.entered
		// Long enough for a refusal to have parked the agent at site-1; a
		// waiting homecoming is indifferent to it.
		time.Sleep(20 * time.Millisecond)
		if arrived() != 0 || site.mParked.Value() != 0 {
			t.Fatalf("while the sender's write is stalled: %d arrival(s), %d parked; want the homecoming waiting", arrived(), site.mParked.Value())
		}
		close(gs.release)
		waitFor(t, "the homecoming", func() bool { return arrived() == 1 })
		if site.mParked.Value() != 0 || home.mParked.Value() != 0 {
			t.Fatalf("parked %d at site-1, %d at gw-0; want the journey never to have parked", site.mParked.Value(), home.mParked.Value())
		}
		waitFor(t, "the homecoming's tombstone", func() bool { n, _ := gs.NumRecords(); return n == 1 })
		if e := soleEntry(t, gs); e.State != StateDelivered || e.Watermark != 1 {
			t.Fatalf("home journal holds %+v, want the homecoming's delivered tombstone", e)
		}
		if got := home.AgentStates()["ag-race-3"]; got != StateDelivered {
			t.Fatalf("home state = %q, want delivered", got)
		}
	})
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
