package mas

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdagent/internal/atp"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/transport"
)

// imageAtMigrate runs src on a scratch host to its first migrate and
// returns the image a sender would put on the wire (aglets, homed at
// gw-0) with the VM snapshot inside it. hops ≥ 0 overrides the
// serialised hop counter.
func imageAtMigrate(t *testing.T, id, src string, hops int) (body, state []byte, prog *mavm.Program) {
	t.Helper()
	prog = compileSrc(t, src)
	vm, err := mavm.New(prog, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := vm.Run(dummyHost{}, mavm.DefaultFuel); st != mavm.StatusMigrating {
		t.Fatalf("scratch run: %v %v, want a migrate", st, err)
	}
	if hops >= 0 {
		vm.Hops = hops
	}
	pb, err := mavm.MarshalProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	state, err = mavm.MarshalState(vm)
	if err != nil {
		t.Fatal(err)
	}
	body, err = atp.AgletsCodec{}.Encode(&atp.Image{
		AgentID: id, Home: "gw-0", CodeID: "code-1", Owner: "dev-1",
		Program: pb, State: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, state, prog
}

// arrive hands a migrate transfer straight to srv's handler, so what the
// handler did is what the server did by the time the OK left.
func arrive(ctx context.Context, srv *Server, id string, body []byte) *transport.Response {
	req := &transport.Request{Path: "/atp/transfer", Body: body}
	req.SetHeader("kind", KindMigrate)
	req.SetHeader("agent", id)
	return srv.Handler().Serve(ctx, req)
}

// fuelAfterArrival is the smallest slice an agent arriving with this
// snapshot finishes in.
func fuelAfterArrival(t *testing.T, prog *mavm.Program, state []byte) uint64 {
	t.Helper()
	for fuel := uint64(1); fuel <= 1000; fuel++ {
		vm, err := mavm.UnmarshalState(prog, state)
		if err != nil {
			t.Fatal(err)
		}
		vm.ClearMigration()
		if st, _ := vm.Run(dummyHost{}, fuel); st == mavm.StatusDone {
			return fuel
		}
	}
	t.Fatal("probe agent never finishes")
	return 0
}

// TestArrivalJournalsAtFirstSuspension is TestAdmitJournalsAtFirstSuspension
// for the other way in: for each thing an arriving agent's first slice
// can come to it counts the journal commits inside the /atp/transfer
// handler, reads what is durable when the OK leaves, and crash-restarts
// the server at that instant.
func TestArrivalJournalsAtFirstSuspension(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	const fuelSrc = `migrate("gw-0"); deliver("a", 1); deliver("b", 2);`
	_, fuelState, fuelProg := imageAtMigrate(t, "ag-probe", fuelSrc, -1)
	enough := fuelAfterArrival(t, fuelProg, fuelState)

	live := func(target, kind string) func(*testing.T, *journalEntry) {
		return func(t *testing.T, e *journalEntry) {
			if e.State != StateRunning || e.Target != target || e.Kind != kind || e.Watermark != 0 {
				t.Fatalf("journaled %+v, want running, bound for %q as %q, watermark 0", e, target, kind)
			}
		}
	}
	tombstone := func(t *testing.T, e *journalEntry) {
		if e.State != StateDelivered || !e.tombstone() || e.Watermark != 0 || len(e.Image.State) != 0 {
			t.Fatalf("journaled %+v, want the delivered tombstone at watermark 0 and no image", e)
		}
	}
	for _, tc := range []struct {
		name    string
		at      string // where the image arrives; gw-0 is its home
		src     string
		hops    int    // serialised hop counter (-1: as run)
		fuel    uint64 // gw-0's FuelSlice (0: the default)
		outcome int
		durable func(*testing.T, *journalEntry) // the journal's one record when the OK leaves
		home    int                             // results the home side holds when the OK leaves
		queued  int                             // continuations spawned
		resumes int                             // journeys a restart at that instant sets moving
		kind    string                          // how the journey ends at home
	}{
		{name: "migrate on", at: "bank-a", src: `migrate("bank-a"); migrate("bank-b"); deliver("at", here());`, hops: -1,
			outcome: entryShipped, durable: live("bank-b", KindMigrate), queued: 1, resumes: 1, kind: KindDone},
		{name: "done at home", at: "gw-0", src: `migrate("gw-0"); deliver("x", 1);`, hops: -1,
			outcome: entryDelivered, durable: tombstone, home: 1, kind: KindDone},
		{name: "failed at home", at: "gw-0", src: `migrate("gw-0"); let r = service("no.such.service");`, hops: -1,
			outcome: entryDelivered, durable: tombstone, home: 1, kind: KindFailed},
		{name: "done away from home", at: "bank-a", src: `migrate("bank-a"); deliver("x", 1);`, hops: -1,
			outcome: entrySuspended, durable: live("gw-0", KindDone), queued: 1, resumes: 1, kind: KindDone},
		{name: "hop limit", at: "bank-a", src: `migrate("bank-a"); migrate("bank-b"); deliver("never", 1);`, hops: 64,
			outcome: entrySuspended, durable: func(t *testing.T, e *journalEntry) {
				if e.State != StateRunning || e.Target != "gw-0" || e.Kind != KindFailed || e.Watermark != 64 ||
					!strings.Contains(e.LastErr, "hop limit") {
					t.Fatalf("journaled %+v, want the failure evidence bound for home", e)
				}
			}, queued: 1, resumes: 1, kind: KindFailed},
		{name: "out of fuel one op short", at: "gw-0", src: fuelSrc, hops: -1, fuel: enough - 1,
			outcome: entrySuspended, durable: live("", ""), queued: 1, resumes: 1, kind: KindDone},
		{name: "out of fuel just inside", at: "gw-0", src: fuelSrc, hops: -1, fuel: enough,
			outcome: entryDelivered, durable: tombstone, home: 1, kind: KindDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newJWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "aglets"}, netsim.ZoneWired)
			w.fuel = tc.fuel
			cs := w.counted(tc.at)
			srv := w.servers[tc.at]
			body, _, _ := imageAtMigrate(t, "ag-arr", tc.src, tc.hops)

			resp := arrive(ctx, srv, "ag-arr", body)
			if !resp.IsOK() || resp.GetHeader("dedup") != "" {
				t.Fatalf("arrival: %d %s", resp.Status, resp.Text())
			}
			// One commit either way: the record at the suspension point, or
			// — no record of the agent at all — the dedup tombstone behind
			// the home side's hand-over.
			if got := cs.writes.Load(); got != 1 {
				t.Fatalf("the handler made %d journal commits, want 1", got)
			}
			tc.durable(t, soleEntry(t, cs))
			for i := range entryOutcomes {
				want := uint64(0)
				if i == tc.outcome {
					want = 1
				}
				if got := srv.arrives[i].Load(); got != want {
					t.Fatalf("pdagent_arrive_total{outcome=%q} = %d, want %d", entryOutcomes[i], got, want)
				}
			}
			if w.arrivalCount() != tc.home || w.queue.Len() != tc.queued {
				t.Fatalf("when the OK left: %d result(s) at home, %d continuation(s); want %d, %d",
					w.arrivalCount(), w.queue.Len(), tc.home, tc.queued)
			}

			// Crash at this instant: the restart carries on from the record
			// (or has nothing to do), the sender's retry is a duplicate, and
			// exactly one copy comes home.
			crashImage := copyStore(t, cs)
			w.crash(tc.at)
			w.queue.Drain()
			w.journals[tc.at] = crashImage
			if n := w.restart(ctx, tc.at); n != tc.resumes {
				t.Fatalf("resumed %d agents, want %d", n, tc.resumes)
			}
			if resp := arrive(ctx, w.servers[tc.at], "ag-arr", body); !resp.IsOK() || resp.GetHeader("dedup") != "1" {
				t.Fatalf("retry after the restart: %d %s, want the duplicate ack", resp.Status, resp.Text())
			}
			w.queue.Drain()
			if w.arrivalCount() != 1 || w.arrivals[0].Kind != tc.kind {
				t.Fatalf("arrivals = %d (%v), want exactly one %s", w.arrivalCount(), w.arrivals, tc.kind)
			}
		})
	}
}

// failStore refuses every write while fail is set.
type failStore struct {
	rms.Store
	fail atomic.Bool
}

var errDiskFull = errors.New("disk full")

func (s *failStore) Add(data []byte) (int, error) {
	if s.fail.Load() {
		return 0, errDiskFull
	}
	return s.Store.Add(data)
}

func (s *failStore) Set(id int, data []byte) error {
	if s.fail.Load() {
		return errDiskFull
	}
	return s.Store.Set(id, data)
}

func (s *failStore) Apply(ops []rms.Op) ([]int, error) {
	if s.fail.Load() {
		return nil, errDiskFull
	}
	return s.Store.Apply(ops)
}

func (s *failStore) ApplyTrailing(ops []rms.Op) ([]int, error) {
	if s.fail.Load() {
		return nil, errDiskFull
	}
	return s.Store.ApplyTrailing(ops)
}

// gateService is a resident service whose first call blocks until the
// test lets it go: it holds an arriving agent inside its first slice.
type gateService struct {
	once             sync.Once
	entered, release chan struct{}
}

func newGateService() *gateService {
	return &gateService{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateService) services() []services.Service {
	return []services.Service{services.Func{ServiceName: "gate.wait", Fn: func([]mavm.Value) (mavm.Value, error) {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
		return mavm.Nil(), nil
	}}}
}

// TestArrivalFaults is the crash matrix of an arrival that runs before
// it is journaled: until the OK leaves, the sender's journal holds the
// only copy, so every fault on the way must leave the receiver empty and
// the sender retrying.
func TestArrivalFaults(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	manage := func(t *testing.T, srv *Server, path, id, to string) {
		t.Helper()
		req := &transport.Request{Path: path}
		req.SetHeader("agent", id)
		if to != "" {
			req.SetHeader("to", to)
		}
		if resp := srv.Handler().Serve(ctx, req); !resp.IsOK() {
			t.Fatalf("%s: %d %s", path, resp.Status, resp.Text())
		}
	}
	// empty: nothing of the agent is left at srv — no record in memory,
	// no reservation, no watermark, nothing in the journal.
	empty := func(t *testing.T, srv *Server, store rms.Store, id string) {
		t.Helper()
		srv.mu.Lock()
		_, known := srv.agents[id]
		_, reserved := srv.pending[id]
		_, marked := srv.accepted[id]
		srv.mu.Unlock()
		n, _ := store.NumRecords()
		if known || reserved || marked || n != 0 {
			t.Fatalf("refused arrival left state behind: known %v, reserved %v, watermark %v, %d journal record(s)",
				known, reserved, marked, n)
		}
	}

	// The journal write fails after the slice ran: 503, everything rolled
	// back, the sender parks; once the disk is back the retry runs clean.
	t.Run("journal write fails", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
		fs := &failStore{Store: rms.NewMemStore("journal-bank-a", 0)}
		fs.fail.Store(true)
		w.journals["bank-a"] = fs
		bankA := w.startServer("bank-a")
		w.admit(ctx, `migrate("bank-a"); deliver("r", service("bank.transfer", "alice", "bob", 50)["txid"]); migrate(home());`, "ag-jf", nil)
		w.queue.Drain()
		if got := w.servers["gw-0"].AgentStates()["ag-jf"]; got != StateParked {
			t.Fatalf("sender state = %q, want parked on its journaled copy", got)
		}
		empty(t, bankA, fs, "ag-jf")
		if bankA.mTransferIn.Value() != 0 || w.arrivalCount() != 0 {
			t.Fatalf("refused arrival counted as accepted (%d) or delivered (%d)", bankA.mTransferIn.Value(), w.arrivalCount())
		}
		fs.fail.Store(false)
		w.servers["gw-0"].RetryParked(ctx)
		w.queue.Drain()
		if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindDone || len(w.arrivals[0].VM.Results) != 1 {
			t.Fatalf("arrivals = %d, want one done journey with one receipt", w.arrivalCount())
		}
		// Each refused attempt ran the hop's service call before its
		// journal write failed: three attempts and the clean retry. The
		// agent that came home carries one receipt — at-least-once calls,
		// exactly-once delivery.
		if bal, _ := w.banks["bank-a"].Balance("alice"); bal != 1000-4*50 {
			t.Fatalf("bank-a alice = %d, want %d", bal, 1000-4*50)
		}
	})

	// The home side refuses a homecoming's result: 503 and no watermark,
	// so the sender's redelivery is not taken for a duplicate.
	t.Run("home refuses the result", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
		cs := w.countedHome(0)
		w.mu.Lock()
		w.refuseHome = errors.New("mailbox store refused the commit")
		w.mu.Unlock()
		w.admit(ctx, `migrate("bank-a"); migrate(home()); deliver("x", 1);`, "ag-hr", nil)
		w.queue.Drain()
		if got := w.servers["bank-a"].AgentStates()["ag-hr"]; got != StateParked {
			t.Fatalf("sender state = %q, want parked on its journaled copy", got)
		}
		// Of the refused homecoming nothing is left at home: its journal
		// still holds only the departure's forwarding pointer.
		home := w.servers["gw-0"]
		home.mu.Lock()
		_, reserved := home.pending["ag-hr"]
		_, marked := home.accepted["ag-hr"]
		home.mu.Unlock()
		if e := soleEntry(t, cs); reserved || marked || e.State != StateDeparted || e.Target != "bank-a" {
			t.Fatalf("refused homecoming left reserved %v, watermark %v, journal %+v", reserved, marked, e)
		}
		w.mu.Lock()
		w.refuseHome = nil
		w.mu.Unlock()
		w.servers["bank-a"].RetryParked(ctx)
		w.queue.Drain()
		if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindDone {
			t.Fatalf("arrivals = %d, want the redelivered result", w.arrivalCount())
		}
		if e := soleEntry(t, cs); e.State != StateDelivered {
			t.Fatalf("home journal holds %+v, want the delivered tombstone", e)
		}
	})

	// Kill lands while the first slice is running: a crashed process
	// journals and acks nothing, and the sender's copy resumes the hop.
	t.Run("kill during the slice", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
		gate := newGateService()
		w.extra = map[string][]services.Service{"bank-a": gate.services()}
		cs := w.counted("bank-a")
		killed := w.servers["bank-a"]
		w.admit(ctx, `migrate("bank-a"); service("gate.wait"); migrate(home()); deliver("x", 1);`, "ag-kill", nil)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			w.queue.Drain()
		}()
		<-gate.entered
		w.crash("bank-a")
		close(gate.release)
		<-drained
		if got := cs.writes.Load(); got != 0 {
			t.Fatalf("the killed server made %d journal commits, want 0", got)
		}
		empty(t, killed, cs, "ag-kill")
		if got := w.servers["gw-0"].AgentStates()["ag-kill"]; got != StateParked {
			t.Fatalf("sender state = %q, want parked on its journaled copy", got)
		}
		if n := w.restart(ctx, "bank-a"); n != 0 {
			t.Fatalf("resumed %d agents from a journal the arrival never reached", n)
		}
		w.servers["gw-0"].RetryParked(ctx)
		w.queue.Drain()
		if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindDone {
			t.Fatalf("arrivals = %d, want the journey resumed from the sender's copy", w.arrivalCount())
		}
	})

	// The OK is lost and the sender retries: a duplicate, and the hop's
	// service calls ran once.
	t.Run("ack lost", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
		cs := w.counted("bank-a")
		body, _, _ := imageAtMigrate(t, "ag-ack",
			`migrate("bank-a"); deliver("r", service("bank.transfer", "alice", "bob", 50)["txid"]);`, -1)
		if resp := arrive(ctx, w.servers["bank-a"], "ag-ack", body); !resp.IsOK() || resp.GetHeader("dedup") != "" {
			t.Fatalf("first transfer: %d %s", resp.Status, resp.Text())
		}
		if resp := arrive(ctx, w.servers["bank-a"], "ag-ack", body); !resp.IsOK() || resp.GetHeader("dedup") != "1" {
			t.Fatalf("retry: %d %s, want the duplicate ack", resp.Status, resp.Text())
		}
		w.queue.Drain()
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals = %d, want exactly 1", w.arrivalCount())
		}
		if bal, _ := w.banks["bank-a"].Balance("alice"); bal != 950 {
			t.Fatalf("bank-a alice = %d, want 950: the retried hop's service call ran again", bal)
		}
		if got := cs.writes.Load(); got != 2 {
			t.Fatalf("the hop cost bank-a %d journal commits, want 2 (record with destination, tombstone)", got)
		}
	})

	// A dispose or retract that lands during the arrival slice still wins
	// over the departure the slice ended in.
	for _, op := range []string{"dispose", "retract"} {
		t.Run(op+" during the slice", func(t *testing.T) {
			w := newJWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "aglets"}, netsim.ZoneWired)
			gate := newGateService()
			w.extra = map[string][]services.Service{"bank-a": gate.services()}
			cs := w.counted("bank-a")
			bankA := w.servers["bank-a"]
			body, _, _ := imageAtMigrate(t, "ag-ctl",
				`migrate("bank-a"); service("gate.wait"); migrate("bank-b"); deliver("x", 1);`, -1)
			answered := make(chan *transport.Response, 1)
			go func() { answered <- arrive(ctx, bankA, "ag-ctl", body) }()
			<-gate.entered
			if op == "dispose" {
				manage(t, bankA, "/atp/dispose", "ag-ctl", "")
			} else {
				manage(t, bankA, "/atp/retract", "ag-ctl", "gw-0")
			}
			close(gate.release)
			if resp := <-answered; !resp.IsOK() {
				t.Fatalf("arrival: %d %s", resp.Status, resp.Text())
			}
			if e := soleEntry(t, cs); e.Target != "bank-b" || e.Kind != KindMigrate {
				t.Fatalf("journaled %+v, want the agent as its slice left it, bound for bank-b", e)
			}
			w.queue.Drain()
			if got := w.servers["bank-b"].mTransferIn.Value(); got != 0 {
				t.Fatalf("bank-b accepted %d copies of an agent that was told to stop", got)
			}
			if op == "dispose" {
				if got := bankA.AgentStates()["ag-ctl"]; got != StateDisposed || w.arrivalCount() != 0 {
					t.Fatalf("state = %q with %d arrival(s), want disposed and nothing delivered", got, w.arrivalCount())
				}
				if e := soleEntry(t, cs); e.State != StateDisposed {
					t.Fatalf("journal holds %+v, want the disposed tombstone", e)
				}
			} else if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindRetracted {
				t.Fatalf("arrivals = %d, want the retracted agent at gw-0", w.arrivalCount())
			}
		})
	}
}

// TestRetryParkedDoesNotRejournal: a parked transfer's image and
// destination are in the journal already, so retrying it through a
// partition costs no commit per tick — unlike an agent parked because
// that very write failed, which retries the write.
func TestRetryParkedDoesNotRejournal(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	const src = `migrate("bank-a"); deliver("r", service("bank.transfer", "alice", "bob", 50)["txid"]); migrate(home());`

	t.Run("partitioned", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "voyager"}, "dmz")
		cs := w.countedHome(0)
		gw := w.servers["gw-0"]
		w.net.PartitionZones(netsim.ZoneWired, "dmz")
		w.admit(ctx, src, "ag-part", nil)
		w.queue.Drain()
		if got := gw.AgentStates()["ag-part"]; got != StateParked || cs.writes.Load() != 1 {
			t.Fatalf("during the partition: state %q after %d commits, want parked after the one record", got, cs.writes.Load())
		}
		for tick := 1; tick <= 3; tick++ {
			if n := gw.RetryParked(ctx); n != 1 {
				t.Fatalf("tick %d: RetryParked = %d, want 1", tick, n)
			}
			w.queue.Drain()
			if got := gw.AgentStates()["ag-part"]; got != StateParked || cs.writes.Load() != 1 {
				t.Fatalf("tick %d: state %q, %d journal commits; want still parked on the one record", tick, got, cs.writes.Load())
			}
		}
		if e := soleEntry(t, cs); e.Target != "bank-a" || e.Kind != KindMigrate {
			t.Fatalf("journal holds %+v, want the parked transfer", e)
		}
		w.net.HealZones(netsim.ZoneWired, "dmz")
		gw.RetryParked(ctx)
		w.queue.Drain()
		if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindDone {
			t.Fatalf("arrivals after heal = %d, want the journey completed", w.arrivalCount())
		}
		if bal, _ := w.banks["bank-a"].Balance("alice"); bal != 950 {
			t.Fatalf("bank-a alice = %d, want 950", bal)
		}
	})

	t.Run("departure never journaled", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
		fs := &failStore{Store: rms.NewMemStore("journal-gw-0", 0)}
		w.journals["gw-0"] = fs
		w.fuel = 100
		gw := w.startServer("gw-0")
		// Out of fuel inside its admission, so the departure to bank-a is a
		// journal write of its own — and that one fails.
		w.admit(ctx, `let i = 0; while i < 200 { i = i + 1; } migrate("bank-a"); deliver("x", 1);`, "ag-nj", nil)
		fs.fail.Store(true)
		w.queue.Drain()
		if got := gw.AgentStates()["ag-nj"]; got != StateParked {
			t.Fatalf("state = %q, want parked on the failed departure write", got)
		}
		if e := soleEntry(t, fs); e.Target != "" {
			t.Fatalf("journal holds %+v, want the admission-slice record with no destination", e)
		}
		fs.fail.Store(false)
		gw.RetryParked(ctx)
		w.queue.Drain()
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals = %d, want the journey completed once the journal took the departure", w.arrivalCount())
		}
	})
}

// TestResumedDepartureShipsJournaledImage: a journal entry that names a
// destination holds the image that leaves for it. Resumed over its own
// store, or adopted from a replica into a standby's, the departure sends
// that image as journaled — no snapshot and no journal write before the
// receiver's OK.
func TestResumedDepartureShipsJournaledImage(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	w := newJWorld(t, map[string]string{"bank-a": "voyager", "gw-1": "aglets"}, "dmz")
	cs := w.countedHome(0)
	standby := w.counted("gw-1")
	w.net.PartitionZones(netsim.ZoneWired, "dmz")
	w.admit(ctx, `migrate("bank-a"); deliver("x", 1);`, "ag-rs", nil)
	w.queue.Drain()
	if e := soleEntry(t, cs); e.Target != "bank-a" || e.Kind != KindMigrate {
		t.Fatalf("journal holds %+v, want the parked departure to bank-a", e)
	}
	replica := copyStore(t, cs)

	// bank-a notes, as each transfer arrives, its body and the journal
	// writes the sender has made by then.
	var sender *countStore
	var bodies [][]byte
	var writes []int64
	bank := w.servers["bank-a"].Handler()
	w.net.AddHost("bank-a", "dmz", transport.HandlerFunc(func(ctx context.Context, req *transport.Request) *transport.Response {
		if req.Path == "/atp/transfer" {
			bodies = append(bodies, append([]byte(nil), req.Body...))
			writes = append(writes, sender.writes.Load())
		}
		return bank.Serve(ctx, req)
	}))
	// shipsJournaled drains the queue and checks that exactly one transfer
	// left, carrying the sender's journaled image, before any journal
	// write of the sender's.
	shipsJournaled := func(t *testing.T) {
		t.Helper()
		want, err := atp.VoyagerCodec{}.Encode(&soleEntry(t, sender).Image)
		if err != nil {
			t.Fatal(err)
		}
		from := sender.writes.Load()
		bodies, writes = nil, nil
		w.queue.Drain()
		if len(bodies) != 1 || writes[0] != from {
			t.Fatalf("%d transfer(s) reached bank-a, at sender journal writes %v; want one, at %d", len(bodies), writes, from)
		}
		if string(bodies[0]) != string(want) {
			t.Fatal("the image sent is not the journaled one")
		}
	}

	t.Run("resumed", func(t *testing.T) {
		w.crash("gw-0")
		w.net.HealZones(netsim.ZoneWired, "dmz")
		sender = cs
		if n := w.restart(ctx, "gw-0"); n != 1 {
			t.Fatalf("resumed %d agents, want 1", n)
		}
		shipsJournaled(t)
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals = %d, want the journey completed", w.arrivalCount())
		}
	})

	t.Run("adopted", func(t *testing.T) {
		sender = standby
		ids, err := w.servers["gw-1"].AdoptJournal(ctx, "gw-0", replica)
		if err != nil || len(ids) != 1 {
			t.Fatalf("AdoptJournal = %v, %v; want the one agent", ids, err)
		}
		if e := soleEntry(t, standby); e.Target != "bank-a" || e.Image.Home != "gw-1" {
			t.Fatalf("standby journal holds %+v, want the departure to bank-a, re-homed", e)
		}
		shipsJournaled(t)
	})
}

// TestMigratingCloneJournalsOnce: a clone of an agent suspended at
// migrate is journaled once, with its destination, and departs on that
// snapshot like any other agent.
func TestMigratingCloneJournalsOnce(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	w := newJWorld(t, nil, netsim.ZoneWired)
	cs := w.countedHome(0)
	w.admit(ctx, suspendingSrc, "ag-cl", nil)
	req := &transport.Request{Path: "/atp/clone"}
	req.SetHeader("agent", "ag-cl")
	resp, err := w.net.Transport(netsim.ZoneWired).RoundTrip(ctx, "gw-0", req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("clone: %v %v", resp, err)
	}
	w.queue.Drain() // both departures fail and park: "elsewhere" is no host
	if got := w.servers["gw-0"].AgentStates()[resp.Text()]; got != StateParked || cs.writes.Load() != 2 {
		t.Fatalf("clone %q after %d journal writes, want parked after 2 (the agent's, the clone's)", got, cs.writes.Load())
	}
}
