package mas

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"pdagent/internal/atp"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

// hopSrc is a journey of one hop and back: a bank transfer at bank-a,
// its receipt carried home.
const hopSrc = `
	let receipts = [];
	migrate("bank-a");
	let r = service("bank.transfer", "alice", "bob", 1);
	push(receipts, r["txid"]);
	deliver("receipts", receipts);
	deliver("n", len(param("transactions")));
`

// TestHopAllocsPerOp pins what one in-process journey allocates: gw-0
// (aglets) admits an agent, which hops to bank-a (voyager), transfers
// there and is shipped home — a voyager and an aglets envelope encoded
// and decoded, three snapshots, three journal writes to MemStores and
// the home delivery, over a transport that calls the destination's
// handler directly. The bounds are what it cost once deliver stopped
// copying the value it records (15.5 KB, 163 allocations) plus about
// 17 %; it cost 15.8 KB and 168 before that, and 26.8 KB and 230 before
// a hop stopped re-copying its image and snapshot.
func TestHopAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const maxBytes, maxAllocs = 18200, 191.0
	hosts := map[string]transport.Handler{}
	queue := &netsim.Queue{}
	mk := func(addr, flavour string, reg *services.Registry) *Server {
		codec, err := atp.ByName(flavour)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{
			Addr: addr, Codec: codec, Transport: &directTransport{hosts}, Services: reg,
			Spawn: queue.Go, Journal: rms.NewMemStore("journal-"+addr, 0),
			OnAgentHome: func(context.Context, *Arrival) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts[addr] = srv.Handler()
		return srv
	}
	home := mk("gw-0", "aglets", services.NewRegistry())
	bank := services.NewBank("bank-a", map[string]int64{"alice": 1 << 40, "bob": 0})
	reg := services.NewRegistry()
	reg.Register(bank.Services()...)
	mk("bank-a", "voyager", reg)

	prog, err := mascript.Compile(hopSrc)
	if err != nil {
		t.Fatal(err)
	}
	txn := mavm.NewMap()
	txn.MapEntries()["from"], txn.MapEntries()["to"], txn.MapEntries()["amount"] = mavm.Str("alice"), mavm.Str("bob"), mavm.Int(1)
	params := map[string]mavm.Value{"transactions": mavm.NewList(txn, txn)}
	ids := make([]string, 3*MaxRetired)
	for i := range ids {
		ids[i] = "ag-" + strconv.Itoa(i)
	}
	next := 0
	journey := func() {
		vm, err := mavm.New(prog, ids[next], params)
		if err != nil {
			panic(err)
		}
		next++
		if err := home.AdmitAgent(context.Background(), vm, "code-1", "device-1", tenant.DefaultID, "gw-0"); err != nil {
			panic(err)
		}
		queue.Drain()
	}
	// Fill both retirement rings: a journey then also evicts the oldest.
	for next < MaxRetired+10 {
		journey()
	}
	if bal, _ := bank.Balance("bob"); bal != int64(next) {
		t.Fatalf("bob holds %d after %d journeys", bal, next)
	}
	allocs := testing.AllocsPerRun(200, journey)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 500
	for i := 0; i < runs; i++ {
		journey()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one hop and back: %d B/op, %.0f allocs/op (bounds %d, %.0f)", bytes, allocs, maxBytes, maxAllocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("one hop and back costs %d B/op, %.0f allocs/op; bounds %d, %.0f", bytes, allocs, maxBytes, maxAllocs)
	}
}
