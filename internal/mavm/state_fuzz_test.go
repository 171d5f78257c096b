package mavm_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pdagent/internal/core"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
)

// bankHost is the host an e-banking agent runs at: every transfer at
// bank-b fails, so the agent carries failures as well as receipts.
type bankHost struct {
	name string
	txid int
}

func (h *bankHost) HostName() string   { return h.name }
func (h *bankHost) HomeAddr() string   { return "gw-0" }
func (h *bankHost) Log(string, string) {}
func (h *bankHost) CallService(name string, args []mavm.Value) (mavm.Value, error) {
	r := mavm.NewMap()
	if name != "bank.transfer" || h.name == "bank-b" {
		r.MapEntries()["ok"] = mavm.Bool(false)
		r.MapEntries()["error"] = mavm.Str("refused at " + h.name)
		return r, nil
	}
	h.txid++
	r.MapEntries()["ok"] = mavm.Bool(true)
	r.MapEntries()["txid"] = mavm.Str(fmt.Sprintf("%s-tx-%d", h.name, h.txid))
	return r, nil
}

// ebankingImages compiles the paper's e-banking agent and walks one
// over three banks and home, snapshotting it as a MAS host would ship
// or journal it: at every migrate and at every fuel-slice suspension
// in between.
func ebankingImages(tb testing.TB) (*mavm.Program, [][]byte) {
	tb.Helper()
	prog, err := mascript.Compile(core.EBankingSource)
	if err != nil {
		tb.Fatal(err)
	}
	txns := make([]mavm.Value, 3)
	for i := range txns {
		m := mavm.NewMap()
		m.MapEntries()["from"] = mavm.Str("alice")
		m.MapEntries()["to"] = mavm.Str("bob")
		m.MapEntries()["amount"] = mavm.Int(int64(10 * (i + 1)))
		txns[i] = m
	}
	vm, err := mavm.New(prog, "ag-gw-0-1", map[string]mavm.Value{
		"banks":        mavm.NewList(mavm.Str("bank-a"), mavm.Str("bank-b"), mavm.Str("bank-c")),
		"transactions": mavm.NewList(txns...),
	})
	if err != nil {
		tb.Fatal(err)
	}
	var images [][]byte
	host := &bankHost{name: "gw-0"}
	for i := 0; i < 10_000; i++ {
		st, err := vm.Run(host, 100)
		if err != nil && !errors.Is(err, mavm.ErrOutOfFuel) {
			tb.Fatal(err)
		}
		if st == mavm.StatusDone {
			return prog, images
		}
		img, err := mavm.MarshalState(vm)
		if err != nil {
			tb.Fatal(err)
		}
		images = append(images, img)
		if st == mavm.StatusMigrating {
			host.name = vm.MigrateTarget()
			vm.ClearMigration()
		}
	}
	tb.Fatal("the e-banking agent did not finish")
	return nil, nil
}

// allocatedBy reports the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzUnmarshalState throws at the agent-state decoder what any sender
// may put in an /atp/transfer image: snapshots of a real e-banking
// agent taken mid-itinerary, their truncations, and mutations of both.
// No input panics or allocates more than a fixed multiple of its own
// length; a state that decodes runs a fuel slice without panicking,
// and re-marshals to an image that decodes to the same bytes again.
func FuzzUnmarshalState(f *testing.F) {
	prog, images := ebankingImages(f)
	for _, img := range images {
		f.Add(img)
		for _, cut := range []int{len(img) / 4, len(img) / 2, len(img) - 1} {
			f.Add(img[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var vm *mavm.VM
		var err error
		n := allocatedBy(func() { vm, err = mavm.UnmarshalState(prog, data) })
		if bound := 256*uint64(len(data)) + 1<<20; n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		img, err := mavm.MarshalState(vm)
		if err != nil {
			t.Fatalf("a decoded state does not re-marshal: %v", err)
		}
		again, err := mavm.UnmarshalState(prog, img)
		if err != nil {
			t.Fatalf("a re-marshalled state does not decode: %v", err)
		}
		if img2, err := mavm.MarshalState(again); err != nil || !bytes.Equal(img, img2) {
			t.Fatalf("re-marshalled state is not stable (%v)", err)
		}
		vm.ClearMigration()
		if vm.Status() == mavm.StatusReady {
			vm.Run(&bankHost{name: "bank-a"}, 10_000) //nolint:errcheck // only checking for panics
		}
	})
}

// TestEBankingImagesRoundTrip: every image the fuzz target is seeded
// with is a real snapshot — it decodes, and re-marshals to itself.
func TestEBankingImagesRoundTrip(t *testing.T) {
	prog, images := ebankingImages(t)
	if len(images) < 5 {
		t.Fatalf("%d images, want the agent snapshotted at every hop and between", len(images))
	}
	for i, img := range images {
		vm, err := mavm.UnmarshalState(prog, img)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if again, err := mavm.MarshalState(vm); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("image %d does not re-marshal to itself (%v)", i, err)
		}
	}
}
