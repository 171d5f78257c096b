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
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
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

func (g *gateStore) ApplyTrailing(ops []rms.Op) ([]int, error) {
	g.gate()
	return g.Store.ApplyTrailing(ops)
}

// tailStore is a journal that loses its un-synced tail in a crash: it
// logs every op it applied and how much of that log a waited write has
// covered, and crashed() rebuilds the store from that prefix — what a
// restart over the same disk finds after a kill that no commit followed.
type tailStore struct {
	rms.Store
	mu     sync.Mutex // held across the inner write: log order is apply order
	log    []rms.Op   // every applied op, with the record id it landed on
	synced int        // prefix of log a waited write has made durable
}

func newTailStore(name string) *tailStore {
	return &tailStore{Store: rms.NewMemStore(name, 0)}
}

func (s *tailStore) write(waited bool, ops ...rms.Op) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.Store.Apply(ops)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		s.log = append(s.log, rms.Op{Op: op.Op, ID: ids[i], Data: append([]byte(nil), op.Data...)})
	}
	if waited {
		s.synced = len(s.log)
	}
	return ids, nil
}

func (s *tailStore) Add(data []byte) (int, error) {
	ids, err := s.write(true, rms.Op{Op: rms.OpAdd, Data: data})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

func (s *tailStore) Set(id int, data []byte) error {
	_, err := s.write(true, rms.Op{Op: rms.OpSet, ID: id, Data: data})
	return err
}

func (s *tailStore) Delete(id int) error {
	_, err := s.write(true, rms.Op{Op: rms.OpDelete, ID: id})
	return err
}

func (s *tailStore) Apply(ops []rms.Op) ([]int, error) { return s.write(true, ops...) }

func (s *tailStore) ApplyTrailing(ops []rms.Op) ([]int, error) { return s.write(false, ops...) }

// unsynced is how many applied ops a crash now would lose.
func (s *tailStore) unsynced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log) - s.synced
}

// crashed replays the durable prefix into a fresh store, as WAL recovery
// does: record ids the lost tail had allocated are free again.
func (s *tailStore) crashed() *tailStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	records, next := map[int][]byte{}, 1
	for _, op := range s.log[:s.synced] {
		if op.Op == rms.OpDelete {
			delete(records, op.ID)
		} else {
			records[op.ID] = op.Data
		}
		if op.ID >= next {
			next = op.ID + 1
		}
	}
	return &tailStore{
		Store:  rms.NewMemStoreFrom(s.Name(), next, records),
		log:    append([]rms.Op(nil), s.log[:s.synced]...),
		synced: s.synced,
	}
}

// TestLostRetirementIsReshippedAndAnswered: a retirement write (the
// sender's tombstone, the gateway's pointer, the homecoming's tombstone) is
// a trailing append, so a server killed before its next commit restarts
// over a journal that still holds the live entry. That is the state
// "crashed between the receiver's OK and the tombstone write": Resume
// re-ships to the journaled target and whoever took the agent the first
// time answers the duplicate — one copy, one receipt per bank.
func TestLostRetirementIsReshippedAndAnswered(t *testing.T) {
	const id = "ag-tail"
	// lossy swaps addr's journal for one that loses its tail.
	lossy := func(w *jWorld, addr string) {
		w.journals[addr] = newTailStore("journal-" + addr)
		w.startServer(addr)
	}
	// killLosingTail crashes addr with its trailing appends un-synced and
	// restarts it over what the disk kept.
	killLosingTail := func(ctx context.Context, w *jWorld, addr string, wantLost, wantResumed int) {
		t.Helper()
		ts := w.journals[addr].(*tailStore)
		if got := ts.unsynced(); got != wantLost {
			t.Fatalf("%s: %d un-synced op(s) at the kill, want %d", addr, got, wantLost)
		}
		w.crash(addr)
		w.journals[addr] = ts.crashed()
		if n := w.restart(ctx, addr); n != wantResumed {
			t.Fatalf("%s resumed %d agent(s) over the journal its crash left, want %d", addr, n, wantResumed)
		}
	}
	oneReceiptPerBank := func(w *jWorld) {
		t.Helper()
		for _, b := range []string{"bank-a", "bank-b"} {
			if bal, _ := w.banks[b].Balance("alice"); bal != 950 {
				t.Errorf("%s alice = %d, want 950: the re-shipped copy ran its transfer again, or never did", b, bal)
			}
		}
	}
	atRest := func(w *jWorld, addrs ...string) {
		t.Helper()
		for _, addr := range addrs {
			if got := w.servers[addr].ResidentCount(); got != 0 {
				t.Errorf("%s still has %d resident agent(s)", addr, got)
			}
			entries, err := w.servers[addr].jr.loadAll()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !e.tombstone() {
					t.Errorf("%s's journal still holds a live copy of %s (%s)", addr, e.Image.AgentID, e.State)
				}
			}
		}
	}

	t.Run("sender's tombstone", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "voyager"}, netsim.ZoneWired)
		lossy(w, "bank-a")
		ctx := netsim.WithClock(context.Background(), netsim.NewClock())
		w.admit(ctx, bankTourSrc, id, map[string]mavm.Value{"banks": listParam("bank-a", "bank-b")})
		// Bank A has bank B's OK and has written its tombstone — appended,
		// not synced — when it dies.
		for w.servers["bank-a"].AgentStates()[id] != StateDeparted {
			if !w.queue.Step() {
				t.Fatal("agent never left bank-a")
			}
		}
		killLosingTail(ctx, w, "bank-a", 2, 1) // tombstone + delete of the live entry
		w.queue.Drain()
		if got := w.arrivalCount(); got != 1 {
			t.Fatalf("arrivals = %d, want exactly 1: bank-b must answer the re-shipped copy as a duplicate", got)
		}
		oneReceiptPerBank(w)
		atRest(w, "bank-a", "bank-b")
	})

	t.Run("gateway's drop and homecoming tombstone, and the last sender's", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "voyager"}, netsim.ZoneWired)
		lossy(w, "gw-0")
		lossy(w, "bank-b")
		ctx := netsim.WithClock(context.Background(), netsim.NewClock())
		w.admit(ctx, bankTourSrc, id, map[string]mavm.Value{"banks": listParam("bank-a", "bank-b")})
		w.queue.Drain()
		if got := w.arrivalCount(); got != 1 {
			t.Fatalf("arrivals = %d before any crash, want 1", got)
		}
		// The gateway's journal has waited for one write, the admission's
		// record; the departure's pointer and the homecoming's tombstone
		// (each an add and a delete) die with it, and
		// so does bank B's tombstone. The gateway re-ships to bank A (a
		// duplicate there); bank B re-ships home, where no watermark is
		// left to answer it: the home side takes the same agent's result a
		// second time and its intake, keyed by agent id, files it once.
		killLosingTail(ctx, w, "gw-0", 4, 1)   // departure pointer, homecoming tombstone
		killLosingTail(ctx, w, "bank-b", 2, 1) // tombstone + delete
		w.queue.Drain()
		w.mu.Lock()
		filed := map[string]string{} // the gateway's mailbox dedups on "result:"+agent id
		for _, a := range w.arrivals {
			got := fmt.Sprint(a.Kind, a.VM.Results)
			if prev, dup := filed["result:"+a.VM.AgentID]; dup && prev != got {
				t.Errorf("the duplicate homecoming carries a different result: %s vs %s", got, prev)
			}
			filed["result:"+a.VM.AgentID] = got
		}
		calls := len(w.arrivals)
		w.mu.Unlock()
		if calls != 2 || len(filed) != 1 {
			t.Fatalf("home side called %d time(s) for %d distinct result(s), want the same result offered twice", calls, len(filed))
		}
		oneReceiptPerBank(w)
		atRest(w, "gw-0", "bank-a", "bank-b")
	})
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
	if err := home.AdmitAgent(context.Background(), vm, "app.race", "dev", tenant.DefaultID, "gw-0"); err != nil {
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
		if err := home.AdmitAgent(context.Background(), vm, "app.race", "dev", tenant.DefaultID, "gw-0"); err != nil {
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
// first departure's bookkeeping frame is still pending on the stack —
// and, retirements being trailing appends, while the first departure's
// tombstone is still un-synced. The superseded frame must not tombstone
// the newer record — after the journey, the site's journal must show
// the agent departed exactly once and resume nothing; a site killed with
// its last tombstone un-synced resumes the second residency's record,
// re-ships it, and home answers the duplicate.
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
	siteJournal := newTailStore("site-journal")
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
	if err := home.AdmitAgent(context.Background(), vm, "app.race", "dev", tenant.DefaultID, "gw-0"); err != nil {
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
		if e.Image.AgentID == "ag-race-2" && !e.tombstone() {
			t.Fatalf("site journal still holds a live copy of the departed agent: state %q", e.State)
		}
	}
	site.Kill()
	// resumeOver restarts site-1 over store and returns what it resumed
	// and the journal it ends with.
	resumeOver := func(store rms.Store) (int, []*journalEntry) {
		t.Helper()
		replacement, err := NewServer(Config{
			Addr: "site-1", Codec: codec, Transport: tr, Spawn: inline,
			Journal: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.hosts["site-1"] = replacement.Handler()
		n, err := replacement.Resume(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		entries, err := replacement.jr.loadAll()
		if err != nil {
			t.Fatal(err)
		}
		return n, entries
	}
	if n, _ := resumeOver(siteJournal); n != 0 {
		t.Fatalf("replacement resumed %d agent(s), want 0", n)
	}
	// The same kill with the second departure's tombstone lost. The first
	// one was made durable, in order, by the re-arrival's waited record.
	if got := siteJournal.unsynced(); got != 2 {
		t.Fatalf("%d un-synced op(s) after the journey, want the last tombstone and its delete", got)
	}
	n, entries := resumeOver(siteJournal.crashed())
	if n != 1 || len(arrivals) != 1 {
		t.Fatalf("over the crashed journal: resumed %d, %d arrival(s) at home; want the second residency re-shipped and answered as a duplicate", n, len(arrivals))
	}
	if len(entries) != 1 || !entries[0].tombstone() {
		t.Fatalf("site journal after the re-ship = %+v, want one tombstone", entries)
	}
}
