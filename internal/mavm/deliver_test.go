package mavm_test

import (
	"errors"
	"strings"
	"testing"

	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
)

// keepHost is a host whose one service, "keep", changes every container
// it is handed: a list's first item becomes 99, a map gains "svc".
type keepHost struct{}

func (keepHost) HostName() string   { return "site" }
func (keepHost) HomeAddr() string   { return "gw-0" }
func (keepHost) Log(string, string) {}
func (keepHost) CallService(_ string, args []mavm.Value) (mavm.Value, error) {
	for _, a := range args {
		switch a.Kind() {
		case mavm.KindList:
			a.ListItems()[0] = mavm.Int(99)
		case mavm.KindMap:
			a.MapEntries()["svc"] = mavm.Bool(true)
		}
	}
	return mavm.Nil(), nil
}

// runThrough runs src to its end, snapshotting and restoring the VM at
// every migrate as a host shipping it would.
func runThrough(t *testing.T, src string) *mavm.VM {
	t.Helper()
	prog, err := mascript.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := vm.Run(keepHost{}, mavm.DefaultFuel)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if st == mavm.StatusDone {
			return vm
		}
		snap, err := mavm.MarshalState(vm)
		if err != nil {
			t.Fatal(err)
		}
		if vm, err = mavm.UnmarshalState(prog, snap); err != nil {
			t.Fatal(err)
		}
		vm.ClearMigration()
	}
}

// TestDeliveredValueFrozen: a delivered list and map read as they were
// at deliver, whatever the agent does to them afterwards — push, pop,
// del, index assignment, handing them to a service that changes them,
// into nested containers too — and whether or not the agent is
// snapshotted and restored in between.
func TestDeliveredValueFrozen(t *testing.T) {
	const setup = `
let l = [1, [2, 3]];
let m = {"a": 1, "n": {"x": 1}};
deliver("l", l);
deliver("m", m);
`
	const wantL, wantM = `[1, [2, 3]]`, `{"a": 1, "n": {"x": 1}}`
	for _, op := range []string{
		`push(l, 4);`,
		`pop(l);`,
		`l[0] = 9;`,
		`push(l[1], 4);`,
		`l[1][0] = 9;`,
		`service("keep", l);`,
		`service("keep", l[1]);`,
		`m["a"] = 7;`,
		`del(m, "a");`,
		`m["n"]["x"] = 2;`,
		`del(m["n"], "x");`,
		`service("keep", m);`,
		`service("keep", m["n"]);`,
		// Both, with a snapshot and restore between the two.
		`push(l, 4); pop(l); l[0] = 9; push(l[1], 4); service("keep", l); pop(l);
		 migrate("site-b");
		 m["a"] = 7; del(m, "n"); m["b"] = 2; service("keep", m);`,
	} {
		for _, restore := range []bool{false, true} {
			src := setup + op
			if restore {
				src = setup + `migrate("site-b");` + op
			}
			vm := runThrough(t, src)
			got := map[string]string{}
			for _, r := range vm.Results {
				got[r.Key] = r.Value.String()
			}
			if got["l"] != wantL || got["m"] != wantM {
				t.Errorf("%s (restored first: %v): delivered l = %s, m = %s; want %s, %s", op, restore, got["l"], got["m"], wantL, wantM)
			}
		}
	}

	// A value delivered again after a change reads as it was then.
	vm := runThrough(t, `let l = [1]; deliver("a", l); push(l, 2); deliver("b", l); migrate("x"); push(l, 3); deliver("c", l); l[0] = 0;`)
	var got []string
	for _, r := range vm.Results {
		got = append(got, r.Key+"="+r.Value.String())
	}
	if want := "a=[1] b=[1, 2] c=[1, 2, 3]"; strings.Join(got, " ") != want {
		t.Fatalf("results %q, want %q", got, want)
	}
}

// TestDeliverCyclicValueFails: a value that contains itself still fails
// at deliver, as when deliver copied it.
func TestDeliverCyclicValueFails(t *testing.T) {
	prog, err := mascript.Compile(`let l = []; push(l, l); deliver("c", l);`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, "ag-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := vm.Run(keepHost{}, mavm.DefaultFuel)
	if st != mavm.StatusFailed || err == nil || !strings.Contains(err.Error(), mavm.ErrValueTooDeep.Error()) {
		t.Fatalf("status %v, err %v", st, err)
	}
	if len(vm.Results) != 0 {
		t.Fatalf("a cyclic value was delivered: %d results", len(vm.Results))
	}
}

// TestDeliverAllocsPerOp pins an e-banking-shaped home delivery: the
// agent delivers a list of 10 three-field receipt maps, a list of
// failures and a count, then ends. The receipts are taken home as they
// are, not copied. The bound is what it cost once deliver stopped
// copying (13 allocations) plus about 17 %; copying the receipts cost 46.
func TestDeliverAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const maxAllocs = 15.0
	prog, err := mascript.Compile(`
let receipts = param("receipts");
deliver("receipts", receipts);
deliver("failures", []);
deliver("banksVisited", 3);
`)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]mavm.Value, 10)
	for i := range items {
		r := mavm.NewMap()
		r.MapEntries()["bank"] = mavm.Str("localhost:9001")
		r.MapEntries()["txid"] = mavm.Str("tx-1")
		r.MapEntries()["amount"] = mavm.Int(150)
		items[i] = r
	}
	receipts := mavm.NewList(items...)
	params := map[string]mavm.Value{"receipts": receipts}
	var vm *mavm.VM
	deliver := func() {
		if vm, err = mavm.New(prog, "ag-1", params); err != nil {
			panic(err)
		}
		if st, err := vm.Run(keepHost{}, mavm.DefaultFuel); st != mavm.StatusDone {
			panic(errors.Join(errors.New(st.String()), err))
		}
	}
	allocs := testing.AllocsPerRun(200, deliver)
	if got := vm.Results[0].Value.ListItems(); &got[0] != &receipts.ListItems()[0] {
		t.Fatal("the delivered receipts are a copy")
	}
	t.Logf("home delivery of 10 receipts: %.0f allocs/op (bound %.0f)", allocs, maxAllocs)
	if allocs > maxAllocs {
		t.Fatalf("home delivery of 10 receipts costs %.0f allocs/op, bound %.0f", allocs, maxAllocs)
	}
}
