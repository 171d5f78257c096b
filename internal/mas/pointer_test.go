package mas

import (
	"context"
	"fmt"
	"testing"

	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/tenant"
)

// TestDeliveredRecordIsAPointer: the record an agent leaves at its home
// once its results are taken holds neither its VM nor its image, however
// it ended — arriving by migrate(home()), shipped home by the host it
// finished at, or finished inside its admission — and /atp/status
// answers for it exactly as when the record kept the VM.
func TestDeliveredRecordIsAPointer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hosts  map[string]string
		src    string
		params map[string]mavm.Value
		status string
	}{
		{"migrate home", map[string]string{"bank-a": "aglets", "bank-b": "voyager"}, bankTourSrc,
			map[string]mavm.Value{"banks": listParam("bank-a", "bank-b")},
			`<?xml version="1.0" encoding="UTF-8"?><agent-status id="ag-1" host="gw-0" state="delivered" vm-status="done" hops="3" steps="83" code-id="code-1"/>`},
		{"shipped home", map[string]string{"bank-a": "voyager"}, `migrate("bank-a"); deliver("where", here());`, nil,
			`<?xml version="1.0" encoding="UTF-8"?><agent-status id="ag-1" host="gw-0" state="delivered" vm-status="done" hops="1" steps="8" code-id="code-1"/>`},
		{"finished at admission", nil, `deliver("x", 1);`, nil,
			`<?xml version="1.0" encoding="UTF-8"?><agent-status id="ag-1" host="gw-0" state="delivered" vm-status="done" hops="0" steps="5" code-id="code-1"/>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newSimWorld(t, tc.hosts)
			if a := w.dispatch(t, tc.src, tc.params); a == nil || a.Kind != KindDone {
				t.Fatalf("arrival %+v, want done", a)
			}
			rec, _ := w.home.lookup("ag-1")
			rec.execMu.Lock()
			vm, image := rec.vm, rec.image
			rec.execMu.Unlock()
			if vm != nil || image != nil {
				t.Errorf("delivered record holds VM %v, image %v", vm != nil, image != nil)
			}
			if got := string(w.status(t, "gw-0", "ag-1")); got != tc.status {
				t.Errorf("status\n got %s\nwant %s", got, tc.status)
			}
		})
	}
}

// TestRetryParkedTouchesOnlyParked: a retry round starts one retry per
// parked agent and walks nothing else — not the retired agents the
// server remembers beside it.
func TestRetryParkedTouchesOnlyParked(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	prog, err := mascript.Compile(`deliver("x", 1);`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	for i := 0; i < MaxRetired; i++ {
		vm, err := mavm.New(prog, fmt.Sprintf("ag-r%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.home.AdmitAgent(ctx, vm, "code-1", "device-1", tenant.DefaultID, "gw-0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.net.SetDown("bank-a", true); err != nil {
		t.Fatal(err)
	}
	w.dispatch(t, `migrate("bank-a"); deliver("x", 1);`, nil)
	s := w.home
	s.mu.Lock()
	retired, records, parked := s.ring.Len(), len(s.agents), len(s.parked)
	s.mu.Unlock()
	if retired != MaxRetired || records != MaxRetired+1 || parked != 1 {
		t.Fatalf("%d retired, %d records, %d parked; want %d, %d, 1", retired, records, parked, MaxRetired, MaxRetired+1)
	}
	if n := s.RetryParked(ctx); n != 1 {
		t.Fatalf("RetryParked started %d retries, want 1", n)
	}
	s.mu.Lock()
	parked = len(s.parked)
	s.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d records still on the worklist after the round", parked)
	}
	w.queue.Drain() // bank-a is still down: the hop parks again
	if n := s.RetryParked(ctx); n != 1 {
		t.Fatalf("second round started %d retries, want 1", n)
	}
}
