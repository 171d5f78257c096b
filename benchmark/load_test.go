package main

import (
	"context"
	"testing"
	"time"

	"pdagent/internal/mavm"
	"pdagent/internal/transport"
)

// A generator that stalls must not hide the stall: the journeys it held
// up are timed from when they were DUE, not from when the generator got
// round to them. A closed loop (or an open loop that restarts its clock
// after every send) would report ~1 ms for every journey below.
func TestStallIsChargedFromDueTime(t *testing.T) {
	const (
		n        = 40
		interval = 10 * time.Millisecond
		stallAt  = 5
		stall    = 200 * time.Millisecond
	)
	r := &runner{recs: make([]journeyRec, n), start: time.Now()}
	tasks := make([]task, n)
	for k := range tasks {
		tasks[k] = task{due: time.Duration(k) * interval, k: k, primary: true,
			run: func(_ context.Context, k int, dueAt time.Time) {
				work := time.Millisecond
				if k == stallAt {
					work = stall // the injected generator stall
				}
				time.Sleep(work)
				r.recs[k].journeyMs = msSince(dueAt)
			}}
	}
	r.runTasks(context.Background(), tasks, 1)

	for k := 0; k < stallAt; k++ {
		if r.recs[k].journeyMs > 50 {
			t.Errorf("journey %d before the stall took %.1f ms", k, r.recs[k].journeyMs)
		}
	}
	// Journey stallAt+1 was due 10 ms into a 200 ms stall: it waited
	// ~190 ms before it could even start.
	next := r.recs[stallAt+1]
	if next.lagMs < 150 || next.journeyMs < 150 {
		t.Errorf("journey after the stall: lag %.1f ms, latency %.1f ms; want both ≈190 ms (charged from due time)", next.lagMs, next.journeyMs)
	}
	// The backlog drains at 1 ms per journey against 10 ms arrivals, so
	// the tail is on time again: the schedule was never shifted.
	last := r.recs[n-1]
	if last.lagMs > 50 || last.journeyMs > 50 {
		t.Errorf("last journey: lag %.1f ms, latency %.1f ms; the generator should have caught up", last.lagMs, last.journeyMs)
	}
	if end := time.Since(r.start); end > time.Duration(n)*interval+stall {
		t.Errorf("run took %v: the stall pushed the whole schedule back", end)
	}
}

func TestScheduleIsFixedIntervalAndReconnectHasTwoPhases(t *testing.T) {
	echo := &runner{wl: findWorkload("echo_plain"), inputs: make([]input, 4), recs: make([]journeyRec, 4), cycles: make([]*reconnectCycle, 4)}
	tasks := echo.schedule()
	if len(tasks) != 4 {
		t.Fatalf("%d tasks for 4 echo journeys", len(tasks))
	}
	rate := findWorkload("echo_plain").rate
	interval := time.Duration(float64(time.Second) / rate)
	for k, tk := range tasks {
		if want := time.Duration(k) * interval; tk.due != want || !tk.primary {
			t.Errorf("task %d due %v primary %v, want %v true", k, tk.due, tk.primary, want)
		}
	}

	rc := &runner{wl: findWorkload("reconnect_collect"), inputs: make([]input, 10), recs: make([]journeyRec, 10), cycles: make([]*reconnectCycle, 10)}
	tasks = rc.schedule()
	if len(tasks) != 20 {
		t.Fatalf("%d tasks for 10 reconnect cycles, want an upload and a session each", len(tasks))
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i].due < tasks[i-1].due {
			t.Fatalf("tasks out of due order at %d", i)
		}
	}
	if got := rc.recs[3].due; got != 3*50*time.Millisecond+reconnectOffset {
		t.Errorf("cycle 3's journey is timed from %v, want its session's due time", got)
	}
	if rc.cycles[9] == nil {
		t.Error("cycles must exist before any task runs (the session task may be claimed first)")
	}
}

func TestInputsAreAPureFunctionOfTheSeed(t *testing.T) {
	wl := findWorkload("echo_sealed")
	a, b, c := genInputs(wl, nil, 7, 30), genInputs(wl, nil, 7, 30), genInputs(wl, nil, 8, 30)
	same := func(x, y []input) bool {
		for i := range x {
			if x[i].dev != y[i].dev || !x[i].params[0]["memo"].Equal(y[i].params[0]["memo"]) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different inputs")
	}
	if same(a, c) {
		t.Error("different seeds, same inputs")
	}
	// Payload sizes come as shuffled triples: any 30 journeys carry
	// exactly ten of each size, whatever the seed.
	for _, in := range [][]input{a, c} {
		count := map[int]int{}
		for _, x := range in {
			count[len(x.params[0]["memo"].AsStr())]++
		}
		for _, size := range memoSizes {
			if count[size] != 10 {
				t.Errorf("size %d appears %d times in 30 journeys, want 10", size, count[size])
			}
		}
	}
	// One journey in flight per device: consecutive journeys never share one.
	for i := 1; i < len(a); i++ {
		if a[i].dev == a[i-1].dev {
			t.Errorf("journeys %d and %d use the same device", i-1, i)
		}
	}
	eb := genInputs(findWorkload("ebank_journey"), []string{"b1", "b2"}, 7, 2)
	if n := len(eb[0].params[0]["transactions"].ListItems()); n != ebankTxPerBank {
		t.Errorf("%d transactions, want %d", n, ebankTxPerBank)
	}
	if got := eb[0].params[0]["banks"]; !got.Equal(mavm.NewList(mavm.Str("b1"), mavm.Str("b2"))) {
		t.Errorf("banks = %s", got)
	}
}

type fixedRT struct{ resp *transport.Response }

func (f fixedRT) RoundTrip(context.Context, string, *transport.Request) (*transport.Response, error) {
	return f.resp, nil
}

func TestCountingRTChargesBodiesPathAndHeaders(t *testing.T) {
	resp := transport.OK([]byte("12345"))
	resp.SetHeader("agent", "ag-1")
	rt := countingRT{inner: fixedRT{resp}}
	a := &acct{}
	ctx := context.WithValue(context.Background(), acctKey{}, a)
	req := &transport.Request{Path: "/pdagent/dispatch", Body: make([]byte, 100)}
	req.SetHeader("owner", "pda")
	if _, err := rt.RoundTrip(ctx, "gw", req); err != nil {
		t.Fatal(err)
	}
	want := len("/pdagent/dispatch") + 100 + (headerOverhead + len("owner") + len("pda")) +
		5 + (headerOverhead + len("agent") + len("ag-1"))
	if a.requests != 1 || a.bytes != want {
		t.Errorf("charged %d request(s), %d bytes; want 1, %d", a.requests, a.bytes, want)
	}
	// No journey in the context (pings, set-up): nothing to charge, no panic.
	if _, err := rt.RoundTrip(context.Background(), "gw", req); err != nil {
		t.Fatal(err)
	}
}

func TestOnlyViolationsMakeAJourneyWrong(t *testing.T) {
	var slow, bad journeyRec
	slow.fail(context.DeadlineExceeded)
	bad.fail(violationf("result for %q delivered twice", "ag-1"))
	if slow.wrong || slow.failure == "" {
		t.Errorf("a journey past its deadline failed but is not a correctness violation: %+v", slow)
	}
	if !bad.wrong {
		t.Errorf("a duplicate result is a correctness violation: %+v", bad)
	}
}
