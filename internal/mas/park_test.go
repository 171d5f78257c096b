package mas

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/transport"
)

// TestJournalLessHostParksFailedHop: a server with no Config.Journal
// parks a hop whose next host is down, and delivers it once that host
// returns — the journey completes, each bank's transfer runs once.
func TestJournalLessHostParksFailedHop(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "voyager"})
	if err := w.net.SetDown("bank-b", true); err != nil {
		t.Fatal(err)
	}
	if a := w.dispatch(t, bankTourSrc, map[string]mavm.Value{"banks": listParam("bank-a", "bank-b")}); a != nil {
		t.Fatalf("arrival %s with bank-b down, want none", a.Kind)
	}
	bankA := w.servers["bank-a"]
	if got := bankA.AgentStates()["ag-1"]; got != StateParked {
		t.Fatalf("state at bank-a = %q, want parked", got)
	}
	if err := w.net.SetDown("bank-b", false); err != nil {
		t.Fatal(err)
	}
	if n := bankA.RetryParked(context.Background()); n != 1 {
		t.Fatalf("RetryParked = %d, want 1", n)
	}
	w.queue.Drain()
	a := w.lastArrival()
	if a == nil || a.Kind != KindDone || len(w.arrivals) != 1 {
		t.Fatalf("arrivals = %d, want the journey done once", len(w.arrivals))
	}
	for _, b := range []string{"bank-a", "bank-b"} {
		if bal, _ := w.banks[b].Balance("alice"); bal != 950 {
			t.Errorf("%s alice = %d, want 950", b, bal)
		}
	}
}

// TestUndeliveredMigrationFailsHomeAfterBound: a migration none of whose
// attempts can have reached its destination — the handshake failed, the
// request provably never left, or the receiver refused it — stays
// parked through maxParkedRounds-1 retries and is failed home, with the
// reason, by the next one.
func TestUndeliveredMigrationFailsHomeAfterBound(t *testing.T) {
	for _, tc := range []struct {
		name, target string
		transfer     func() (*transport.Response, error) // bank-b's transfer answer (nil: forward)
	}{
		{name: "handshake fails", target: "ghost-host"},
		{name: "not delivered", target: "bank-b", transfer: func() (*transport.Response, error) {
			return nil, transport.MarkNotDelivered(errors.New("connection refused"))
		}},
		{name: "refused", target: "bank-b", transfer: func() (*transport.Response, error) {
			return transport.Errorf(transport.StatusUnavailable, "busy"), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newSimWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "aglets"})
			w.hook = func(ctx context.Context, _, to string, req *transport.Request, next transport.RoundTripper) (*transport.Response, error) {
				if to == "bank-b" && req.Path == "/atp/transfer" && tc.transfer != nil {
					return tc.transfer()
				}
				return next.RoundTrip(ctx, to, req)
			}
			w.dispatch(t, fmt.Sprintf(`migrate("bank-a"); migrate(%q); deliver("never", 1);`, tc.target), nil)
			bankA := w.servers["bank-a"]
			for round := 1; round < maxParkedRounds; round++ {
				if a := w.retryParked(1); a != nil || bankA.AgentStates()["ag-1"] != StateParked {
					t.Fatalf("retry %d: state %q, arrival %v; want still parked", round, bankA.AgentStates()["ag-1"], a)
				}
			}
			a := w.retryParked(1)
			if a == nil || a.Kind != KindFailed || len(w.arrivals) != 1 {
				t.Fatalf("after %d retries: arrivals %d, want the journey failed home", maxParkedRounds, len(w.arrivals))
			}
			if msg := a.VM.FailMsg(); !strings.Contains(msg, "transfer to "+tc.target) {
				t.Fatalf("FailMsg = %q, want the failed transfer named", msg)
			}
		})
	}
}

// TestAmbiguousMigrationNeverFailsHome: one attempt whose request reached
// the receiver but whose answer was lost rules out giving up: the
// migration stays parked through a partition well past maxParkedRounds,
// and after the heal the receiver's watermark answers the retry as a
// duplicate — exactly one copy of the agent ever ran there.
func TestAmbiguousMigrationNeverFailsHome(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "voyager"})
	cut, lost := false, 0
	var lastAnswer *transport.Response
	w.hook = func(ctx context.Context, from, to string, req *transport.Request, next transport.RoundTripper) (*transport.Response, error) {
		link := (from == "gw-0" && to == "bank-a") || (from == "bank-a" && to == "gw-0")
		if link && cut {
			return nil, transport.MarkNotDelivered(errors.New("partitioned"))
		}
		resp, err := next.RoundTrip(ctx, to, req)
		if link && req.Path == "/atp/transfer" && from == "gw-0" {
			lastAnswer = resp
			if lost == 0 {
				// The request was delivered and answered; the answer is
				// lost, and the link goes down with it.
				lost, cut = 1, true
				return nil, errors.New("connection reset before the answer")
			}
		}
		return resp, err
	}
	const src = `migrate("bank-a"); deliver("r", service("bank.transfer", "alice", "bob", 50)["txid"]);`
	w.dispatch(t, src, nil)
	gw, bankA := w.servers["gw-0"], w.servers["bank-a"]
	if got := gw.AgentStates()["ag-1"]; got != StateParked || lost != 1 {
		t.Fatalf("at gw-0: state %q after %d lost answer(s), want parked after one", got, lost)
	}
	if got := bankA.AgentStates()["ag-1"]; got != StateParked {
		t.Fatalf("at bank-a: state %q, want its homecoming parked", got)
	}
	w.retryParked(maxParkedRounds + 2)
	if got := gw.AgentStates()["ag-1"]; got != StateParked || len(w.arrivals) != 0 {
		t.Fatalf("after %d retries: state %q, %d arrival(s); want still parked, nothing home", maxParkedRounds+2, got, len(w.arrivals))
	}
	cut = false
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	if n := gw.RetryParked(ctx); n != 1 {
		t.Fatalf("RetryParked at gw-0 = %d, want 1", n)
	}
	w.queue.Drain()
	if lastAnswer == nil || !lastAnswer.IsOK() || lastAnswer.GetHeader("dedup") != "1" {
		t.Fatalf("bank-a answered the healed retry %v, want dedup: 1", lastAnswer)
	}
	if got := gw.AgentStates()["ag-1"]; got != StateDeparted {
		t.Fatalf("at gw-0 after the heal: state %q, want departed", got)
	}
	if n := bankA.RetryParked(ctx); n != 1 {
		t.Fatalf("RetryParked at bank-a = %d, want 1", n)
	}
	w.queue.Drain()
	if len(w.arrivals) != 1 || w.arrivals[0].Kind != KindDone {
		t.Fatalf("arrivals = %d, want the journey home once", len(w.arrivals))
	}
	if bal, _ := w.banks["bank-a"].Balance("alice"); bal != 950 {
		t.Fatalf("bank-a alice = %d, want 950: one copy ran there", bal)
	}
}

// TestDepartedRecordIsAPointer: once the receiver acks, the sender's
// record drops its VM and its last image, and /atp/status reports it
// byte for byte as a server that kept the VM did.
func TestDepartedRecordIsAPointer(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	// bank-a ships on to a host that does not exist, so the agent stays
	// away and gw-0 keeps its departure record.
	w.dispatch(t, `let n = 0; while n < 10 { n = n + 1; } migrate("bank-a"); migrate("bank-b"); deliver("n", n);`, nil)
	rec, ok := w.home.lookup("ag-1")
	if !ok || rec.state != StateDeparted {
		t.Fatalf("home record %v, want departed", rec)
	}
	if rec.vm != nil || rec.image != nil {
		t.Fatal("the departed record still holds the agent's VM or image")
	}
	const want = `<?xml version="1.0" encoding="UTF-8"?>` +
		`<agent-status id="ag-1" host="gw-0" state="departed" vm-status="migrating" hops="0" steps="98" code-id="code-1" moved-to="bank-a"/>`
	if got := string(w.status(t, "gw-0", "ag-1")); got != want {
		t.Fatalf("status document:\n%q\nwant:\n%q", got, want)
	}
}

// TestGivenUpMigrationSurvivesCrash: the homecoming a give-up sends is
// journaled like any departure, so when home is down too and the host
// then crashes, Resume re-ships the failed journey: it arrives once.
func TestGivenUpMigrationSurvivesCrash(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
	w.admit(ctx, `migrate("bank-a"); migrate("ghost-host"); deliver("never", 1);`, "ag-g", nil)
	w.queue.Drain()
	if err := w.net.SetDown("gw-0", true); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < maxParkedRounds; round++ {
		w.servers["bank-a"].RetryParked(ctx)
		w.queue.Drain()
	}
	if got := w.servers["bank-a"].AgentStates()["ag-g"]; got != StateParked {
		t.Fatalf("state at bank-a = %q, want the failed homecoming parked", got)
	}
	w.crash("bank-a")
	if err := w.net.SetDown("gw-0", false); err != nil {
		t.Fatal(err)
	}
	if n := w.restart(ctx, "bank-a"); n != 1 {
		t.Fatalf("Resume = %d, want the failed homecoming", n)
	}
	w.queue.Drain()
	if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindFailed || !strings.Contains(w.arrivals[0].VM.FailMsg(), "ghost-host") {
		t.Fatalf("arrivals = %d, want the journey failed home once", w.arrivalCount())
	}
}

// TestResumedDepartureNeverFailsHome: a departure re-driven by Resume may
// have landed before the crash, so no number of undelivered retries
// fails it home; after the heal it completes once.
func TestResumedDepartureNeverFailsHome(t *testing.T) {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	w := newJWorld(t, map[string]string{"bank-a": "voyager"}, "dmz")
	w.net.PartitionZones(netsim.ZoneWired, "dmz")
	w.admit(ctx, `migrate("bank-a"); deliver("x", 1);`, "ag-r", nil)
	w.queue.Drain()
	w.crash("gw-0")
	if n := w.restart(ctx, "gw-0"); n != 1 {
		t.Fatalf("Resume = %d, want the parked departure", n)
	}
	w.queue.Drain()
	gw := w.servers["gw-0"]
	for round := 0; round <= maxParkedRounds; round++ {
		gw.RetryParked(ctx)
		w.queue.Drain()
	}
	if got := gw.AgentStates()["ag-r"]; got != StateParked || w.arrivalCount() != 0 {
		t.Fatalf("after %d retries: state %q, %d arrival(s); want still parked", maxParkedRounds+1, got, w.arrivalCount())
	}
	w.net.HealZones(netsim.ZoneWired, "dmz")
	gw.RetryParked(ctx)
	w.queue.Drain()
	if w.arrivalCount() != 1 || w.arrivals[0].Kind != KindDone {
		t.Fatalf("arrivals = %d, want the journey done once", w.arrivalCount())
	}
}
