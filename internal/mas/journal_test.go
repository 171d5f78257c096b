package mas

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

// jWorld is a journaled simulated world whose servers can crash and be
// replaced by fresh instances over the same journal store.
type jWorld struct {
	t        *testing.T
	net      *netsim.Network
	queue    *netsim.Queue
	servers  map[string]*Server
	journals map[string]rms.Store
	flavours map[string]string
	zones    map[string]string
	banks    map[string]*services.Bank
	fuel     uint64 // gw-0's FuelSlice (0 = the default)
	// extra services per host, registered beside its bank's at the next
	// startServer.
	extra map[string][]services.Service

	mu         sync.Mutex
	arrivals   []*Arrival
	refuseHome error // when set, gw-0's OnAgentHome answers it
}

// newJWorld builds "gw-0" (home, wired zone) plus journaled bank hosts
// (addr -> flavour) in the given zone.
func newJWorld(t *testing.T, hosts map[string]string, hostZone string) *jWorld {
	t.Helper()
	w := &jWorld{
		t:        t,
		net:      netsim.New(17),
		queue:    &netsim.Queue{},
		servers:  map[string]*Server{},
		journals: map[string]rms.Store{},
		flavours: map[string]string{"gw-0": "aglets"},
		zones:    map[string]string{"gw-0": netsim.ZoneWired},
		banks:    map[string]*services.Bank{},
	}
	link := netsim.Link{Latency: 10 * time.Millisecond}
	w.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, link)
	if hostZone != netsim.ZoneWired {
		w.net.SetLinkBoth(netsim.ZoneWired, hostZone, link)
		w.net.SetLinkBoth(hostZone, hostZone, link)
	}
	w.journals["gw-0"] = rms.NewMemStore("journal-gw-0", 0)
	w.startServer("gw-0")
	for addr, flavour := range hosts {
		w.flavours[addr] = flavour
		w.zones[addr] = hostZone
		w.banks[addr] = services.NewBank(addr, map[string]int64{"alice": 1000, "bob": 100})
		w.journals[addr] = rms.NewMemStore("journal-"+addr, 0)
		w.startServer(addr)
	}
	return w
}

// startServer (re)creates the server at addr over its journal store and
// registers it on the network, replacing any previous instance.
func (w *jWorld) startServer(addr string) *Server {
	w.t.Helper()
	codec, err := atp.ByName(w.flavours[addr])
	if err != nil {
		w.t.Fatal(err)
	}
	reg := services.NewRegistry()
	if bank := w.banks[addr]; bank != nil {
		reg.Register(bank.Services()...)
	}
	reg.Register(w.extra[addr]...)
	cfg := Config{
		Addr:      addr,
		Codec:     codec,
		Transport: w.net.Transport(w.zones[addr]),
		Services:  reg,
		Spawn:     w.queue.Go,
		Journal:   w.journals[addr],
	}
	if addr == "gw-0" {
		cfg.FuelSlice = w.fuel
		cfg.OnAgentHome = func(_ context.Context, a *Arrival) error {
			w.mu.Lock()
			defer w.mu.Unlock()
			if w.refuseHome != nil {
				return w.refuseHome
			}
			w.arrivals = append(w.arrivals, a)
			return nil
		}
	}
	srv, err := NewServer(cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	w.net.AddHost(addr, w.zones[addr], srv.Handler())
	w.servers[addr] = srv
	return srv
}

// crash kills the server process at addr (journal survives).
func (w *jWorld) crash(addr string) {
	w.t.Helper()
	w.servers[addr].Kill()
	if err := w.net.KillHost(addr); err != nil {
		w.t.Fatal(err)
	}
}

// restart replaces the crashed server with a fresh instance over the
// same journal and resumes journaled agents.
func (w *jWorld) restart(ctx context.Context, addr string) int {
	w.t.Helper()
	srv := w.startServer(addr)
	if err := w.net.ReviveHost(addr); err != nil {
		w.t.Fatal(err)
	}
	n, err := srv.Resume(ctx)
	if err != nil {
		w.t.Fatal(err)
	}
	return n
}

func (w *jWorld) admit(ctx context.Context, src, id string, params map[string]mavm.Value) {
	w.t.Helper()
	prog, err := mascript.Compile(src)
	if err != nil {
		w.t.Fatalf("Compile: %v", err)
	}
	vm, err := mavm.New(prog, id, params)
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.servers["gw-0"].AdmitAgent(ctx, vm, "code-1", "dev-1", tenant.DefaultID, "gw-0"); err != nil {
		w.t.Fatal(err)
	}
}

// suspendingSrc is an agent still on its journey when its admission
// returns: its first slice suspends at migrate — to a host no fixture
// has, so the departure parks until the test brings one up.
const suspendingSrc = `migrate("elsewhere"); deliver("x", 1);`

func (w *jWorld) arrivalCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.arrivals)
}

// TestAgentSurvivesCrashMidItinerary is the acceptance scenario: a MAS
// killed between two hops of a multi-host itinerary, then resumed from
// its journal, completes the itinerary with exactly one copy of the
// agent delivered home — and the bank transactions execute exactly
// once.
func TestAgentSurvivesCrashMidItinerary(t *testing.T) {
	w := newJWorld(t, map[string]string{
		"bank-a": "aglets",
		"bank-b": "voyager",
	}, netsim.ZoneWired)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	w.admit(ctx, bankTourSrc, "ag-crash", map[string]mavm.Value{
		"banks": listParam("bank-a", "bank-b"),
	})

	// Step the deterministic schedule until the agent is resident at
	// bank-a (its first slice ran inside the handoff: it is journaled
	// with its transfer done, bound for bank-b).
	arrived := func() bool {
		return w.servers["bank-a"].AgentStates()["ag-crash"] == StateRunning
	}
	for !arrived() {
		if !w.queue.Step() {
			t.Fatal("agent never reached bank-a")
		}
	}

	// Kill bank-a between the two hops: queued execution dies with it.
	w.crash("bank-a")
	w.queue.Drain()
	if got := w.arrivalCount(); got != 0 {
		t.Fatalf("%d arrivals while bank-a is down", got)
	}

	// A fresh server over the same journal picks the journey back up.
	if n := w.restart(ctx, "bank-a"); n != 1 {
		t.Fatalf("resumed %d agents, want 1", n)
	}
	w.queue.Drain()

	if got := w.arrivalCount(); got != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", got)
	}
	w.mu.Lock()
	arrival := w.arrivals[0]
	w.mu.Unlock()
	if arrival.Kind != KindDone {
		t.Fatalf("kind = %s (err %s)", arrival.Kind, arrival.VM.FailMsg())
	}
	res := map[string]mavm.Value{}
	for _, r := range arrival.VM.Results {
		res[r.Key] = r.Value
	}
	if got := len(res["receipts"].ListItems()); got != 2 {
		t.Fatalf("receipts = %v", res["receipts"])
	}
	// Exactly-once service effects: one 50-unit transfer per bank.
	for _, b := range []string{"bank-a", "bank-b"} {
		if bal, _ := w.banks[b].Balance("alice"); bal != 950 {
			t.Errorf("%s alice = %d, want 950 (transactions re-executed or lost)", b, bal)
		}
	}
}

// migratingImage builds an encoded agent image suspended at
// migrate(target), for driving /atp/transfer directly.
func migratingImage(t *testing.T, id, target string) []byte {
	t.Helper()
	body, _, _ := imageAtMigrate(t, id, fmt.Sprintf(`migrate(%q); deliver("x", 1);`, target), -1)
	return body
}

// TestDuplicateTransferDedupAcrossRestart exercises the receiver-side
// dedup watermark: a sender retrying a transfer the receiver already
// accepted — even a receiver that crashed and restarted in between —
// gets an idempotent commit-ack, never a second agent copy.
func TestDuplicateTransferDedupAcrossRestart(t *testing.T) {
	w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	body := migratingImage(t, "ag-dup", "bank-a")
	tr := w.net.Transport(netsim.ZoneWired)

	send := func() *transport.Response {
		req := &transport.Request{Path: "/atp/transfer", Body: body}
		req.SetHeader("kind", KindMigrate)
		req.SetHeader("agent", "ag-dup")
		resp, err := tr.RoundTrip(ctx, "bank-a", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send(); !resp.IsOK() || !strings.Contains(resp.Text(), "accepted") {
		t.Fatalf("first transfer: %d %s", resp.Status, resp.Text())
	}
	// Immediate retry (sender missed the ack): deduplicated.
	if resp := send(); !resp.IsOK() || resp.GetHeader("dedup") != "1" {
		t.Fatalf("retry: %d %s", resp.Status, resp.Text())
	}

	// Crash and restart the receiver, then retry again: the watermark
	// was journaled with the agent, so the retry still dedups.
	w.crash("bank-a")
	if n := w.restart(ctx, "bank-a"); n != 1 {
		t.Fatalf("resumed %d agents, want 1", n)
	}
	if resp := send(); !resp.IsOK() || resp.GetHeader("dedup") != "1" {
		t.Fatalf("retry after restart: %d %s", resp.Status, resp.Text())
	}

	w.queue.Drain()
	if got := w.arrivalCount(); got != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", got)
	}
}

// TestDedupSurvivesRestartAfterDeparture covers the nastiest handoff
// window: the receiver accepts a transfer, forwards the agent onward
// (here: completes it and ships it home), and only then crashes — all
// while the sender never saw the ack. The departed tombstone keeps
// the watermark durable, so the sender's retry after the restart is
// still deduplicated instead of resurrecting a second copy.
func TestDedupSurvivesRestartAfterDeparture(t *testing.T) {
	w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	body := migratingImage(t, "ag-dep", "bank-a")
	tr := w.net.Transport(netsim.ZoneWired)

	send := func() *transport.Response {
		req := &transport.Request{Path: "/atp/transfer", Body: body}
		req.SetHeader("kind", KindMigrate)
		req.SetHeader("agent", "ag-dep")
		resp, err := tr.RoundTrip(ctx, "bank-a", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send(); !resp.IsOK() || !strings.Contains(resp.Text(), "accepted") {
		t.Fatalf("first transfer: %d %s", resp.Status, resp.Text())
	}
	// Let the agent run to completion at bank-a and ship home: its
	// journal entry becomes a departed tombstone.
	w.queue.Drain()
	if got := w.arrivalCount(); got != 1 {
		t.Fatalf("arrivals = %d, want 1", got)
	}
	if got := w.servers["bank-a"].AgentStates()["ag-dep"]; got != StateDeparted {
		t.Fatalf("bank-a state = %q, want departed", got)
	}

	// Crash after departure, restart: no journey to resume, but the
	// watermark must come back.
	w.crash("bank-a")
	if n := w.restart(ctx, "bank-a"); n != 0 {
		t.Fatalf("resumed %d journeys from a tombstone-only journal", n)
	}
	if resp := send(); !resp.IsOK() || resp.GetHeader("dedup") != "1" {
		t.Fatalf("retry after departure+restart: %d %s", resp.Status, resp.Text())
	}
	w.queue.Drain()
	if got := w.arrivalCount(); got != 1 {
		t.Fatalf("arrivals = %d after retry, want exactly 1", got)
	}
}

// TestContestedHandoffDeliversOneCopy races N identical transfers of
// one agent against a live (goroutine-spawning) journaled server:
// exactly one must be accepted, the rest deduplicated, and exactly one
// copy must come home. A contender that meets the winner's handoff
// reservation is told to retry (the 503 reserveHandoff documents) and
// does, as a real sender does — transferImage at once, then RetryParked
// on its ticker — until the commit has made the answer final. Run under
// -race.
func TestContestedHandoffDeliversOneCopy(t *testing.T) {
	net := netsim.New(23)
	net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{})
	var mu sync.Mutex
	var arrivals []*Arrival
	home, err := NewServer(Config{
		Addr: "gw-0", Codec: atp.AgletsCodec{},
		Transport: net.Transport(netsim.ZoneWired),
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
	net.AddHost("gw-0", netsim.ZoneWired, home.Handler())
	site, err := NewServer(Config{
		Addr: "site-1", Codec: atp.AgletsCodec{},
		Transport: net.Transport(netsim.ZoneWired),
		Journal:   rms.NewMemStore("journal-site-1", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddHost("site-1", netsim.ZoneWired, site.Handler())

	body := migratingImage(t, "ag-race", "site-1")
	tr := net.Transport(netsim.ZoneWired)
	const contenders = 8
	results := make(chan string, contenders)
	for i := 0; i < contenders; i++ {
		go func() {
			req := &transport.Request{Path: "/atp/transfer", Body: body}
			req.SetHeader("kind", KindMigrate)
			req.SetHeader("agent", "ag-race")
			resp, err := tr.RoundTrip(context.Background(), "site-1", req)
			deadline := time.Now().Add(5 * time.Second)
			for err == nil && resp.Status == transport.StatusUnavailable && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
				resp, err = tr.RoundTrip(context.Background(), "site-1", req)
			}
			switch {
			case err != nil:
				results <- "err:" + err.Error()
			case resp.IsOK() && resp.GetHeader("dedup") == "1":
				results <- "dedup"
			case resp.IsOK():
				results <- "accepted"
			default:
				results <- fmt.Sprintf("status:%d", resp.Status)
			}
		}()
	}
	accepted, dedup := 0, 0
	for i := 0; i < contenders; i++ {
		switch r := <-results; r {
		case "accepted":
			accepted++
		case "dedup":
			dedup++
		default:
			t.Fatalf("contender result: %s", r)
		}
	}
	if accepted != 1 || dedup != contenders-1 {
		t.Fatalf("accepted=%d dedup=%d, want 1/%d", accepted, dedup, contenders-1)
	}
	waitFor(t, "single home arrival", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(arrivals) == 1
	})
	// Give stragglers a chance to (incorrectly) deliver a second copy.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	n := len(arrivals)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("arrivals = %d, want exactly 1", n)
	}
}

// stallStore wraps a MemStore so a test can hold the first Add in
// flight and decide its outcome, modelling a slow or failing WAL.
type stallStore struct {
	*rms.MemStore
	entered chan struct{} // closed when Add is first entered
	release chan error    // what that Add should return
	once    sync.Once
}

func (s *stallStore) Add(data []byte) (int, error) {
	var first bool
	var injected error
	s.once.Do(func() {
		first = true
		close(s.entered)
		injected = <-s.release
	})
	if first && injected != nil {
		return 0, injected
	}
	return s.MemStore.Add(data)
}

// TestRetryDuringStalledCommitIsRefusedNotAcked pins the mid-commit
// window of the two-phase handoff: while the first transfer's journal
// write is in flight, a retry must get a retryable refusal — not a
// duplicate-OK that the first request could later roll back (the
// sender would drop its copy and the agent would exist nowhere). After
// the stalled WAL write fails, a fresh retry must be accepted.
func TestRetryDuringStalledCommitIsRefusedNotAcked(t *testing.T) {
	net := netsim.New(29)
	net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{})
	store := &stallStore{
		MemStore: rms.NewMemStore("journal-stall", 0),
		entered:  make(chan struct{}),
		release:  make(chan error, 1),
	}
	srv, err := NewServer(Config{
		Addr: "site-1", Codec: atp.AgletsCodec{},
		Transport: net.Transport(netsim.ZoneWired),
		Journal:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddHost("site-1", netsim.ZoneWired, srv.Handler())
	body := migratingImage(t, "ag-stall", "site-1")
	tr := net.Transport(netsim.ZoneWired)
	send := func() *transport.Response {
		req := &transport.Request{Path: "/atp/transfer", Body: body}
		req.SetHeader("kind", KindMigrate)
		resp, err := tr.RoundTrip(context.Background(), "site-1", req)
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}

	firstDone := make(chan *transport.Response, 1)
	go func() { firstDone <- send() }()
	<-store.entered // first transfer is now stalled inside its WAL write

	// A retry while the commit is in flight: retryable refusal, not an
	// ack the first request might invalidate.
	if resp := send(); resp.Status != transport.StatusUnavailable {
		t.Fatalf("retry during stalled commit: %d %s", resp.Status, resp.Text())
	}

	// Fail the stalled WAL write: the first transfer must be refused
	// too (no copy admitted).
	store.release <- fmt.Errorf("disk full")
	if resp := <-firstDone; resp.Status != transport.StatusUnavailable {
		t.Fatalf("first transfer after WAL failure: %d %s", resp.Status, resp.Text())
	}
	if got := srv.AgentStates()["ag-stall"]; got != "" {
		t.Fatalf("agent admitted despite WAL failure: %q", got)
	}

	// The sender still holds its copy; its next retry succeeds.
	if resp := send(); !resp.IsOK() || !strings.Contains(resp.Text(), "accepted") {
		t.Fatalf("retry after WAL recovery: %d %s", resp.Status, resp.Text())
	}
}

// TestPartitionParksThenRetriesAfterHeal: a transfer attempted across a
// zone partition must not lose the agent — it parks under its journal
// and completes after the partition heals and RetryParked runs.
func TestPartitionParksThenRetriesAfterHeal(t *testing.T) {
	w := newJWorld(t, map[string]string{"bank-a": "voyager"}, "dmz")
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())

	w.net.PartitionZones(netsim.ZoneWired, "dmz")
	w.admit(ctx, `migrate("bank-a"); deliver("r", service("bank.transfer", "alice", "bob", 50)); migrate(home());`, "ag-part", nil)
	w.queue.Drain()

	if got := w.servers["gw-0"].AgentStates()["ag-part"]; got != StateParked {
		t.Fatalf("state during partition = %q, want parked", got)
	}
	if w.arrivalCount() != 0 {
		t.Fatal("agent delivered through a partition")
	}
	if w.net.Stats().Blocked == 0 {
		t.Fatal("partition blocked nothing")
	}

	w.net.HealZones(netsim.ZoneWired, "dmz")
	if n := w.servers["gw-0"].RetryParked(ctx); n != 1 {
		t.Fatalf("RetryParked = %d, want 1", n)
	}
	w.queue.Drain()

	if got := w.arrivalCount(); got != 1 {
		t.Fatalf("arrivals after heal = %d, want 1", got)
	}
	w.mu.Lock()
	arrival := w.arrivals[0]
	w.mu.Unlock()
	if arrival.Kind != KindDone {
		t.Fatalf("kind = %s (err %s)", arrival.Kind, arrival.VM.FailMsg())
	}
	if bal, _ := w.banks["bank-a"].Balance("alice"); bal != 950 {
		t.Fatalf("bank-a alice = %d, want 950", bal)
	}
}

// TestResumeFromTornJournal truncates the last segment of a WAL-backed
// agent journal at every byte boundary: NewServer+Resume must either recover the
// last good record or report a clean error — never panic, and never
// resurrect a half-written agent.
func TestResumeFromTornJournal(t *testing.T) {
	dir := t.TempDir()
	store, err := rms.OpenWALStore(filepath.Join(dir, "agents.journal"), rms.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Populate the journal through a real server: an agent bound for an
	// unreachable host journals once, suspended at its migrate with the
	// destination, then parks.
	net := netsim.New(31)
	net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{})
	queue := &netsim.Queue{}
	srv, err := NewServer(Config{
		Addr: "gw-0", Codec: atp.AgletsCodec{},
		Transport: net.Transport(netsim.ZoneWired),
		Spawn:     queue.Go,
		Journal:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddHost("gw-0", netsim.ZoneWired, srv.Handler())
	prog, err := mascript.Compile(`migrate("ghost"); deliver("x", 1);`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-torn", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	if err := srv.AdmitAgent(ctx, vm, "code-1", "dev-1", tenant.DefaultID, "gw-0"); err != nil {
		t.Fatal(err)
	}
	queue.Drain()
	if got := srv.AgentStates()["ag-torn"]; got != StateParked {
		t.Fatalf("state = %q, want parked", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "agents.journal", "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments: %v, %v; want exactly one", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 64 {
		t.Fatalf("journal segment suspiciously small: %d bytes", len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		// A fresh copy of the journal directory each time: recovery
		// truncates the tear away, so a reused copy would stay short.
		tornDir := filepath.Join(dir, fmt.Sprintf("torn-%d.journal", cut))
		if err := os.Mkdir(tornDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tornDir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tornStore, err := rms.OpenWALStore(tornDir, rms.WALOptions{Sync: rms.SyncNever})
		if err != nil {
			// A clean error is acceptable; a panic is not (and would
			// have failed the test already).
			continue
		}
		tq := &netsim.Queue{}
		srv2, err := NewServer(Config{
			Addr: "gw-0", Codec: atp.AgletsCodec{},
			Transport: net.Transport(netsim.ZoneWired),
			Spawn:     tq.Go,
			Journal:   tornStore,
		})
		if err != nil {
			tornStore.Close()
			continue
		}
		n, err := srv2.Resume(ctx)
		if err == nil && n > 1 {
			t.Fatalf("cut=%d: resumed %d agents from a 1-agent journal", cut, n)
		}
		// A resumed agent must be the real one, intact.
		if n == 1 {
			if got := srv2.AgentStates()["ag-torn"]; got == "" {
				t.Fatalf("cut=%d: resumed an agent that is not ag-torn", cut)
			}
		}
		tq.Drain() // resumed ship attempts must not panic either
		tornStore.Close()
	}
}

// TestTombstoneReplaceIsOneCommit: retiring a journaled agent is ONE
// ordered append — the tombstone, then the delete of the superseded live
// record — with no commit of its own: it costs no fsync, rides the next
// write that waits, reaches the log in that order, still replays to the
// tombstone alone, and a store failure comes back to the caller instead
// of being dropped with the delete.
func TestTombstoneReplaceIsOneCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal.wal")
	wal, err := rms.OpenWALStore(dir, rms.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	var logged []rms.CommitOp // durable ops, in log order
	wal.SetCommitSink(func(ops []rms.CommitOp) { logged = append(logged, ops...) })
	jr, err := openJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	live := &journalEntry{
		ID: "ag-1", Home: "gw-0", State: StateRunning, Watermark: 3,
		Program: []byte("prog"), VMState: []byte("state"),
	}
	tomb := &journalEntry{ID: "ag-1", Home: "gw-0", State: StateDeparted, Watermark: 3}
	if _, err := jr.put(live); err != nil {
		t.Fatal(err)
	}
	before := wal.Fsyncs()
	if _, err := jr.put(tomb); err != nil {
		t.Fatal(err)
	}
	if st := wal.Stats(); wal.Fsyncs() != before || st.TrailingOps != 2 || st.TrailingUnsynced != 2 {
		t.Fatalf("tombstone replace cost %d fsyncs with %d/%d trailing ops un-synced, want 0 and 2/2",
			wal.Fsyncs()-before, st.TrailingUnsynced, st.TrailingOps)
	}
	next := *live
	next.ID = "ag-2"
	if _, err := jr.put(&next); err != nil {
		t.Fatal(err)
	}
	if st := wal.Stats(); wal.Fsyncs()-before != 1 || st.TrailingUnsynced != 0 {
		t.Fatalf("the next waited write: %d fsyncs, %d trailing ops still un-synced; want 1 and 0", wal.Fsyncs()-before, st.TrailingUnsynced)
	}
	var order []string
	for _, op := range logged {
		order = append(order, fmt.Sprintf("%d:%d", op.Op, op.ID))
	}
	if want := fmt.Sprintf("%d:1 %d:2 %d:1 %d:3", rms.OpAdd, rms.OpAdd, rms.OpDelete, rms.OpAdd); strings.Join(order, " ") != want {
		t.Fatalf("log order (op:id) = %v, want %s: the tombstone before the delete of the record it replaces", order, want)
	}
	if err := jr.drop("ag-2"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := wal.IDs(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("store holds records %v, want the tombstone (2) alone", ids)
	}
	jr2, err := openJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := jr2.loadAll(); len(entries) != 1 || !entries[0].tombstone() || entries[0].Watermark != 3 {
		t.Fatalf("reloaded journal = %+v, want one tombstone at watermark 3", entries)
	}

	wal.Close()
	other := &journalEntry{ID: "ag-2", Home: "gw-0", State: StateDelivered, Watermark: 1}
	if _, err := jr.put(other); !errors.Is(err, rms.ErrClosed) {
		t.Fatalf("tombstone over a closed store: err = %v, want ErrClosed", err)
	}
}

// TestTombstoneEvictionTrails: past maxJournalTombstones every retirement
// also evicts the oldest tombstone. The eviction is a trailing append
// like the tombstone that caused it — it used to be a waited Delete, a
// second fsync per retirement for the rest of the daemon's life.
func TestTombstoneEvictionTrails(t *testing.T) {
	wal, err := rms.OpenWALStore(filepath.Join(t.TempDir(), "journal.wal"), rms.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	jr, err := openJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	tomb := func(i int) *journalEntry {
		return &journalEntry{ID: fmt.Sprintf("ag-%d", i), Home: "gw-0", State: StateDelivered, Watermark: 1}
	}
	for i := 0; i < maxJournalTombstones; i++ {
		if evicted, err := jr.put(tomb(i)); err != nil || evicted != "" {
			t.Fatalf("tombstone %d: evicted %q, err %v; want the cap not reached yet", i, evicted, err)
		}
	}
	// Fsyncs the store started itself (the bound expiring on a slow run)
	// are not the journal's.
	commits := func() uint64 { return wal.Fsyncs() - wal.Stats().TrailingSyncs }
	before, ops := commits(), wal.Stats().TrailingOps
	for i := maxJournalTombstones; i < maxJournalTombstones+3; i++ {
		evicted, err := jr.put(tomb(i))
		if want := fmt.Sprintf("ag-%d", i-maxJournalTombstones); err != nil || evicted != want {
			t.Fatalf("tombstone %d: evicted %q, err %v; want the oldest, %s", i, evicted, err, want)
		}
	}
	if got, appended := commits()-before, wal.Stats().TrailingOps-ops; got != 0 || appended != 6 {
		t.Fatalf("3 retirements over the cap cost %d fsyncs in %d trailing ops, want 0 in 6 (tombstone + eviction each)", got, appended)
	}
	if n, _ := wal.NumRecords(); n != maxJournalTombstones {
		t.Fatalf("journal holds %d records, want the cap %d", n, maxJournalTombstones)
	}
}
