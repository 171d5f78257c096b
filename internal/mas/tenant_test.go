package mas

import (
	"bytes"
	"context"
	"testing"

	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
)

func compileSrc(t *testing.T, src string) *mavm.Program {
	t.Helper()
	prog, err := mascript.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

// encodeV1Entry hand-builds a pre-tenant ("MASJ1") journal record: the
// same layout as the current encoding minus the tenant field. The
// decoder must keep accepting these so an upgraded daemon re-hydrates
// journals written before the multi-tenant control plane.
func encodeV1Entry(e *journalEntry) []byte {
	var b bytes.Buffer
	b.Write(journalMagicV1)
	writeU32(&b, uint32(e.Watermark+1))
	for _, f := range [][]byte{
		[]byte(e.ID), []byte(e.Home), []byte(e.CodeID), []byte(e.Owner),
		[]byte(e.State), []byte(e.Target), []byte(e.Kind), []byte(e.LastErr),
		e.Program, e.VMState,
	} {
		writeU32(&b, uint32(len(f)))
		b.Write(f)
	}
	return b.Bytes()
}

func TestJournalV1EntryDecodes(t *testing.T) {
	want := &journalEntry{
		ID: "ag-1", Home: "gw-0", CodeID: "code-1", Owner: "dev-1",
		State: StateRunning, Target: "bank-a", Kind: KindMigrate,
		LastErr: "boom", Watermark: 3,
		Program: []byte("prog"), VMState: []byte("state"),
	}
	store := rms.NewMemStore("j", 0)
	if _, err := store.Add(encodeV1Entry(want)); err != nil {
		t.Fatal(err)
	}
	jr, err := openJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := jr.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("loadAll = %d entries", len(entries))
	}
	got := entries[0]
	if got.Tenant != "" {
		t.Fatalf("v1 entry decoded with tenant %q, want default", got.Tenant)
	}
	if got.ID != want.ID || got.Home != want.Home || got.CodeID != want.CodeID ||
		got.Owner != want.Owner || got.State != want.State || got.Target != want.Target ||
		got.Kind != want.Kind || got.LastErr != want.LastErr || got.Watermark != want.Watermark ||
		!bytes.Equal(got.Program, want.Program) || !bytes.Equal(got.VMState, want.VMState) {
		t.Fatalf("v1 decode mismatch: %+v", got)
	}
}

func TestJournalTenantRoundTrip(t *testing.T) {
	store := rms.NewMemStore("j", 0)
	jr, err := openJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	e := &journalEntry{
		ID: "ag-1", Home: "gw-0", CodeID: "code-1", Owner: "dev-1",
		Tenant: "acme", State: StateRunning, Watermark: -1,
		Program: []byte("prog"), VMState: []byte("state"),
	}
	if _, err := jr.put(e); err != nil {
		t.Fatal(err)
	}
	// A fresh journal over the same store must see the account again.
	jr2, err := openJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := jr2.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Tenant != "acme" {
		t.Fatalf("reloaded entries = %+v, want tenant acme", entries)
	}
}

func TestJournalBytesByTenant(t *testing.T) {
	store := rms.NewMemStore("j", 0)
	jr, err := openJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	a := &journalEntry{
		ID: "ag-a", Home: "gw-0", Tenant: "acme", State: StateRunning,
		Watermark: -1, Program: []byte("prog-a"), VMState: []byte("state-a"),
	}
	d := &journalEntry{
		ID: "ag-d", Home: "gw-0", State: StateRunning,
		Watermark: -1, Program: []byte("prog-d"), VMState: []byte("state-d"),
	}
	for _, e := range []*journalEntry{a, d} {
		if _, err := jr.put(e); err != nil {
			t.Fatal(err)
		}
	}
	sums := jr.bytesByTenant()
	if sums["acme"] != int64(len(a.encode())) {
		t.Fatalf("acme bytes = %d, want %d", sums["acme"], len(a.encode()))
	}
	if sums[""] != int64(len(d.encode())) {
		t.Fatalf("default bytes = %d, want %d", sums[""], len(d.encode()))
	}

	// Replacing the entry re-bills the new size, not the sum of both.
	a.VMState = bytes.Repeat([]byte("x"), 1024)
	if _, err := jr.put(a); err != nil {
		t.Fatal(err)
	}
	if got := jr.bytesByTenant()["acme"]; got != int64(len(a.encode())) {
		t.Fatalf("acme bytes after grow = %d, want %d", got, len(a.encode()))
	}

	// A departure tombstone still occupies the store, so it stays
	// billed — at its own (slim) size.
	a.State = StateDeparted
	a.Program, a.VMState = nil, nil
	a.Watermark = 2
	if _, err := jr.put(a); err != nil {
		t.Fatal(err)
	}
	if got := jr.bytesByTenant()["acme"]; got != int64(len(a.encode())) {
		t.Fatalf("acme bytes after tombstone = %d, want %d", got, len(a.encode()))
	}

	// Dropping forgets the bill entirely.
	if err := jr.drop("ag-a"); err != nil {
		t.Fatal(err)
	}
	if got, ok := jr.bytesByTenant()["acme"]; ok {
		t.Fatalf("acme still billed %d after drop", got)
	}

	// A reopened journal rebuilds the sums from the store.
	jr2, err := openJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	if got := jr2.bytesByTenant()[""]; got != int64(len(d.encode())) {
		t.Fatalf("default bytes after reopen = %d, want %d", got, len(d.encode()))
	}
}

// TestTenantAccountTravelsWithAgent admits an agent billed to "acme"
// and walks it through a remote host: the visited host's journal must
// bill the acme account (the tenant header rode along on
// /atp/transfer), and after the journey completes its departure
// tombstone keeps the evidence.
func TestTenantAccountTravelsWithAgent(t *testing.T) {
	w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())

	prog := compileSrc(t, `
		migrate("bank-a");
		let r = service("bank.transfer", "alice", "bob", 50);
		migrate(home());
		deliver("txid", r["txid"]);
	`)
	vm, err := mavm.New(prog, "ag-ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.servers["gw-0"].AdmitAgent(ctx, vm, "code-1", "dev-1", "acme", "gw-0"); err != nil {
		t.Fatal(err)
	}

	// Before the queue runs, the agent is resident at home — billed to
	// its account, not the default one.
	res := w.servers["gw-0"].ResidentsByTenant()
	if res["acme"] != 1 || res["default"] != 0 {
		t.Fatalf("home residents = %v, want acme:1", res)
	}
	if got := w.servers["gw-0"].JournalBytesByTenant()["acme"]; got == 0 {
		t.Fatal("home journal bills nothing to acme")
	}

	w.queue.Drain()
	if w.arrivalCount() != 1 {
		t.Fatalf("arrivals = %d, want 1", w.arrivalCount())
	}
	// bank-a kept a departure tombstone for the hop it accepted; the
	// bill must name the account the transfer header carried.
	if got := w.servers["bank-a"].JournalBytesByTenant()["acme"]; got == 0 {
		t.Fatal("bank-a journal bills nothing to acme — tenant lost in transfer")
	}
}

// TestTenantSurvivesCrashRestart crashes a server holding a tenant's
// agent and restarts it over the same journal: Resume must re-bill the
// re-hydrated agent to the original account.
func TestTenantSurvivesCrashRestart(t *testing.T) {
	w := newJWorld(t, nil, netsim.ZoneWired)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())

	prog := compileSrc(t, suspendingSrc)
	vm, err := mavm.New(prog, "ag-crash", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.servers["gw-0"].AdmitAgent(ctx, vm, "code-1", "dev-1", "acme", "gw-0"); err != nil {
		t.Fatal(err)
	}
	// Crash before the queued departure ever ran: only the journal
	// survives.
	w.crash("gw-0")
	w.queue.Drain()
	if w.restart(ctx, "gw-0") != 1 {
		t.Fatal("journaled agent not resumed")
	}
	if got := w.servers["gw-0"].ResidentsByTenant()["acme"]; got != 1 {
		t.Fatalf("resumed residents[acme] = %d, want 1", got)
	}
}
