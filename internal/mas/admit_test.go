package mas

import (
	"context"
	"fmt"
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

// countStore counts the writes a journal asks of its store, waited for
// or trailing.
type countStore struct {
	rms.Store
	writes atomic.Int64
}

func (s *countStore) Add(data []byte) (int, error) {
	s.writes.Add(1)
	return s.Store.Add(data)
}

func (s *countStore) Set(id int, data []byte) error {
	s.writes.Add(1)
	return s.Store.Set(id, data)
}

func (s *countStore) Delete(id int) error {
	s.writes.Add(1)
	return s.Store.Delete(id)
}

func (s *countStore) Apply(ops []rms.Op) ([]int, error) {
	s.writes.Add(1)
	return s.Store.Apply(ops)
}

func (s *countStore) ApplyTrailing(ops []rms.Op) ([]int, error) {
	s.writes.Add(1)
	return s.Store.ApplyTrailing(ops)
}

// counted swaps the journal at addr for a counting one and restarts the
// server over it.
func (w *jWorld) counted(addr string) *countStore {
	cs := &countStore{Store: rms.NewMemStore("journal-"+addr, 0)}
	w.journals[addr] = cs
	w.startServer(addr)
	return cs
}

// countedHome is counted("gw-0") with, for fuel > 0, that FuelSlice.
func (w *jWorld) countedHome(fuel uint64) *countStore {
	w.fuel = fuel
	return w.counted("gw-0")
}

// soleEntry decodes the one record a journal store is expected to hold.
func soleEntry(t *testing.T, store rms.Store) *journalEntry {
	t.Helper()
	ids, err := store.IDs()
	if err != nil || len(ids) != 1 {
		t.Fatalf("journal holds records %v (%v), want exactly one", ids, err)
	}
	data, err := store.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeJournalEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// copyStore clones a journal as a crash at this instant would leave it.
func copyStore(t *testing.T, src rms.Store) rms.Store {
	t.Helper()
	dst := rms.NewMemStore(src.Name(), 0)
	ids, err := src.IDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		data, err := src.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Add(data); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAdmitJournalsAtFirstSuspension counts the journal commits of an
// admission for each thing an agent's first slice can come to, and
// crash-restarts the server right after each.
func TestAdmitJournalsAtFirstSuspension(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())

	// (a) Finished at home inside the slice: handed over before the
	// admission returns, never journaled, nothing spawned.
	t.Run("delivered", func(t *testing.T) {
		w := newJWorld(t, nil, netsim.ZoneWired)
		cs := w.countedHome(0)
		w.admit(ctx, `deliver("x", 1);`, "ag-a", nil)
		if got := cs.writes.Load(); got != 0 {
			t.Fatalf("zero-hop admission made %d journal commits, want 0", got)
		}
		if w.arrivalCount() != 1 || w.queue.Len() != 0 {
			t.Fatalf("after admission: %d arrival(s), %d queued task(s); want the result taken and nothing spawned",
				w.arrivalCount(), w.queue.Len())
		}
		if got := w.servers["gw-0"].AgentStates()["ag-a"]; got != StateDelivered {
			t.Fatalf("state = %q, want delivered", got)
		}
		// Nothing to resume, nothing lost: the home side took the result.
		w.crash("gw-0")
		if n := w.restart(ctx, "gw-0"); n != 0 {
			t.Fatalf("resumed %d agents after a zero-hop journey", n)
		}
		w.queue.Drain()
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals = %d, want exactly 1", w.arrivalCount())
		}
	})

	// (b) Suspended at migrate: one record, carrying the destination —
	// the departure does not journal the same state again. A crash after
	// the send landed but before its ack was recorded re-ships to the
	// journaled target, and the receiver's watermark makes that a no-op.
	t.Run("shipped", func(t *testing.T) {
		w := newJWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "aglets"}, netsim.ZoneWired)
		cs := w.countedHome(0)
		w.crash("bank-b") // holds the agent at bank-a until the test is done with gw-0
		w.admit(ctx, `migrate("bank-a"); migrate("bank-b"); deliver("at", here());`, "ag-b", nil)
		if got := cs.writes.Load(); got != 1 {
			t.Fatalf("admission of a migrating agent made %d journal commits, want 1", got)
		}
		e := soleEntry(t, cs)
		if e.State != StateRunning || e.Target != "bank-a" || e.Kind != KindMigrate || e.Watermark != -1 {
			t.Fatalf("journaled %+v, want running, bound for bank-a", e)
		}
		crashImage := copyStore(t, cs)

		w.queue.Drain() // gw-0 ships; bank-a runs it and parks it on bank-b
		if got := cs.writes.Load(); got != 2 {
			t.Fatalf("admission + departure made %d journal commits, want 2 (the record, then its drop)", got)
		}
		bankA := w.servers["bank-a"]
		if bankA.AgentStates()["ag-b"] != StateParked || bankA.mTransferIn.Value() != 1 {
			t.Fatalf("bank-a: state %q, %d accepted", bankA.AgentStates()["ag-b"], bankA.mTransferIn.Value())
		}

		w.crash("gw-0")
		w.journals["gw-0"] = crashImage
		if n := w.restart(ctx, "gw-0"); n != 1 {
			t.Fatalf("resumed %d agents, want 1", n)
		}
		w.queue.Drain()
		if got := bankA.mTransferIn.Value(); got != 1 {
			t.Fatalf("bank-a accepted %d copies, want the re-shipped one deduplicated", got)
		}
		if got := w.servers["gw-0"].AgentStates()["ag-b"]; got != StateDeparted {
			t.Fatalf("gw-0 state after the deduplicated re-ship = %q, want departed", got)
		}
		if n, _ := crashImage.NumRecords(); n != 0 {
			t.Fatalf("gw-0 journal holds %d records after the ack, want 0", n)
		}

		w.restart(ctx, "bank-b")
		bankA.RetryParked(ctx)
		w.queue.Drain()
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals = %d, want exactly 1", w.arrivalCount())
		}
	})

	// (c) Out of fuel: one record, no destination, and a restart carries
	// on from the suspended snapshot instead of starting over.
	t.Run("suspended", func(t *testing.T) {
		const src = `let i = 0; while i < 200 { i = i + 1; } deliver("i", i);`
		total := stepsToFinish(t, src)
		const fuel = 100
		w := newJWorld(t, nil, netsim.ZoneWired)
		cs := w.countedHome(fuel)
		w.admit(ctx, src, "ag-c", nil)
		if got := cs.writes.Load(); got != 1 {
			t.Fatalf("admission of a suspending agent made %d journal commits, want 1", got)
		}
		e := soleEntry(t, cs)
		if e.State != StateRunning || e.Target != "" || e.Kind != "" {
			t.Fatalf("journaled %+v, want running with no destination", e)
		}
		if w.arrivalCount() != 0 || w.queue.Len() != 1 {
			t.Fatalf("after admission: %d arrival(s), %d queued task(s)", w.arrivalCount(), w.queue.Len())
		}
		w.crash("gw-0")
		w.queue.Drain()
		if n := w.restart(ctx, "gw-0"); n != 1 {
			t.Fatalf("resumed %d agents, want 1", n)
		}
		w.queue.Drain()
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals = %d, want 1", w.arrivalCount())
		}
		if got := w.arrivals[0].VM.Steps; got != total {
			t.Fatalf("resumed journey took %d steps, an uninterrupted one %d: the admission slice ran twice", got, total)
		}
	})
}

// stepsToFinish runs src to completion on a scratch VM and returns its
// step count.
func stepsToFinish(t *testing.T, src string) uint64 {
	t.Helper()
	vm, err := mavm.New(compileSrc(t, src), "ag-scratch", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := vm.Run(dummyHost{}, mavm.DefaultFuel); st != mavm.StatusDone {
		t.Fatalf("scratch run: %v %v", st, err)
	}
	return vm.Steps
}

// TestAdmissionSliceBound sits on the bound an admission costs its
// caller: an agent that finishes with the slice's last op is handed
// over inside the admission and never journaled; one op short of that
// it is journaled once, as suspended, before the admission returns; and
// an agent that never finishes costs the caller exactly one FuelSlice.
func TestAdmissionSliceBound(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	const src = `deliver("a", 1); deliver("b", 2); deliver("c", 3);`
	// The smallest slice the agent finishes in.
	prog := compileSrc(t, src)
	var enough uint64
	for enough = 1; ; enough++ {
		vm, err := mavm.New(prog, "ag-probe", nil)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := vm.Run(dummyHost{}, enough); st == mavm.StatusDone {
			break
		}
		if enough > 1000 {
			t.Fatal("probe agent never finishes")
		}
	}

	t.Run("just inside", func(t *testing.T) {
		w := newJWorld(t, nil, netsim.ZoneWired)
		cs := w.countedHome(enough)
		w.admit(ctx, src, "ag-in", nil)
		if cs.writes.Load() != 0 || w.arrivalCount() != 1 || w.queue.Len() != 0 {
			t.Fatalf("slice of %d ops: %d journal commits, %d arrivals, %d queued; want 0, 1, 0",
				enough, cs.writes.Load(), w.arrivalCount(), w.queue.Len())
		}
	})
	t.Run("one op short", func(t *testing.T) {
		w := newJWorld(t, nil, netsim.ZoneWired)
		cs := w.countedHome(enough - 1)
		w.admit(ctx, src, "ag-out", nil)
		if cs.writes.Load() != 1 || w.arrivalCount() != 0 {
			t.Fatalf("slice of %d ops: %d journal commits, %d arrivals; want 1, 0",
				enough-1, cs.writes.Load(), w.arrivalCount())
		}
		if e := soleEntry(t, cs); e.State != StateRunning || e.Target != "" {
			t.Fatalf("journaled %+v, want running with no destination", e)
		}
		w.queue.Drain()
		if w.arrivalCount() != 1 {
			t.Fatalf("arrivals after the second slice = %d, want 1", w.arrivalCount())
		}
		if n, _ := cs.NumRecords(); n != 0 {
			t.Fatalf("journal holds %d records after delivery, want 0", n)
		}
	})
	t.Run("never finishes", func(t *testing.T) {
		const fuel = 512
		w := newJWorld(t, nil, netsim.ZoneWired)
		cs := w.countedHome(fuel)
		admitted := make(chan struct{})
		go func() {
			defer close(admitted)
			w.admit(ctx, `let n = 0; while true { n = n + 1; }`, "ag-spin", nil)
		}()
		select {
		case <-admitted:
		case <-time.After(10 * time.Second):
			t.Fatal("admission of a spinning agent did not return")
		}
		srv := w.servers["gw-0"]
		rec, _ := srv.lookup("ag-spin")
		if rec == nil || rec.vm.Steps != fuel {
			t.Fatalf("admission ran the agent for %v steps, want exactly one slice of %d", rec, fuel)
		}
		if e := soleEntry(t, cs); e.State != StateRunning || e.Target != "" || cs.writes.Load() != 1 {
			t.Fatalf("journaled %+v in %d commits, want one suspended record", e, cs.writes.Load())
		}
		// It would burn on under Spawn for ever; a dispose still gets in
		// at the next slice boundary.
		req := &transport.Request{Path: "/atp/dispose"}
		req.SetHeader("agent", "ag-spin")
		if resp := srv.Handler().Serve(ctx, req); !resp.IsOK() {
			t.Fatalf("dispose: %d %s", resp.Status, resp.Text())
		}
		w.queue.Drain()
		if got := srv.AgentStates()["ag-spin"]; got != StateDisposed {
			t.Fatalf("state = %q, want disposed", got)
		}
	})
}

// TestAdmissionFailsWhenHomeRefusesResult: a zero-hop agent whose home
// side cannot take the result fails its admission and leaves nothing
// behind — no record, no journal entry — so the caller can retry.
func TestAdmissionFailsWhenHomeRefusesResult(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	net := netsim.New(41)
	store := &countStore{Store: rms.NewMemStore("journal", 0)}
	refuse := true
	srv, err := NewServer(Config{
		Addr: "gw-0", Codec: atp.AgletsCodec{}, Transport: net.Transport(netsim.ZoneWired),
		Spawn: func(func()) { t.Error("a zero-hop admission spawned work") }, Journal: store,
		OnAgentHome: func(context.Context, *Arrival) error {
			if refuse {
				return fmt.Errorf("mailbox store refused the commit")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mascript.Compile(`deliver("x", 1);`)
	if err != nil {
		t.Fatal(err)
	}
	admit := func() error {
		vm, err := mavm.New(prog, "ag-refused", nil)
		if err != nil {
			t.Fatal(err)
		}
		return srv.AdmitAgent(ctx, vm, "code-1", "dev-1", tenant.DefaultID, "gw-0")
	}
	if err := admit(); err == nil {
		t.Fatal("admission succeeded although the home side refused the result")
	}
	if _, known := srv.AgentStates()["ag-refused"]; known || store.writes.Load() != 0 {
		t.Fatalf("failed admission left state behind: known %v, %d journal commits", known, store.writes.Load())
	}
	refuse = false
	if err := admit(); err != nil {
		t.Fatalf("retried admission: %v", err)
	}
	if got := srv.AgentStates()["ag-refused"]; got != StateDelivered {
		t.Fatalf("state = %q, want delivered", got)
	}
}

// TestResumeAdmitStateEntry: a journal written before admission ran the
// first slice holds agents that have not executed an instruction
// (state running, no destination, a fresh VM). Resume takes them as it
// always has.
func TestResumeAdmitStateEntry(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	w := newJWorld(t, nil, netsim.ZoneWired)
	prog := compileSrc(t, `deliver("x", 1);`)
	vm, err := mavm.New(prog, "ag-old", nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := mavm.MarshalProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mavm.MarshalState(vm)
	if err != nil {
		t.Fatal(err)
	}
	old := &journalEntry{
		ID: "ag-old", Home: "gw-0", CodeID: "code-1", Owner: "dev-1",
		State: StateRunning, Watermark: -1, Program: pb, VMState: sb,
	}
	w.crash("gw-0")
	if _, err := w.journals["gw-0"].Add(old.encode()); err != nil {
		t.Fatal(err)
	}
	if n := w.restart(ctx, "gw-0"); n != 1 {
		t.Fatalf("resumed %d agents from an admit-state entry, want 1", n)
	}
	w.queue.Drain()
	if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindDone {
		t.Fatalf("arrivals = %d, want the resumed agent's result", w.arrivalCount())
	}
	if n, _ := w.journals["gw-0"].NumRecords(); n != 0 {
		t.Fatalf("journal holds %d records after delivery, want 0", n)
	}
}
