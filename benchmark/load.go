package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/device"
	"pdagent/internal/mavm"
	"pdagent/internal/push"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// --- device-side byte and request accounting ------------------------------

// acct collects what one journey cost on the device<->gateway link. A
// journey runs on one goroutine, so plain fields suffice; the context
// carries it through device.Platform to the decorator below.
type acct struct {
	requests int
	bytes    int
}

type acctKey struct{}

// countingRT is the device-side RoundTripper decorator: it charges each
// request and response (bodies, path and X-Pdagent-* headers) to the
// journey in the context. This is the paper's "connectivity cost".
type countingRT struct{ inner transport.RoundTripper }

const headerOverhead = len("X-Pdagent-") + len(": \r\n")

func (c countingRT) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := c.inner.RoundTrip(ctx, addr, req)
	if a, ok := ctx.Value(acctKey{}).(*acct); ok {
		a.requests++
		a.bytes += len(req.Path) + len(req.Body)
		for k, v := range req.Header {
			a.bytes += headerOverhead + len(k) + len(v)
		}
		if resp != nil {
			a.bytes += len(resp.Body)
			for k, v := range resp.Header {
				a.bytes += headerOverhead + len(k) + len(v)
			}
		}
	}
	return resp, err
}

// generators is the number of generator goroutines, which is also the
// device-side connection cap: never more than nproc, so the load
// generator cannot crowd the daemons off the cores it shares with them.
func generators() int { return min(runtime.NumCPU(), maxGenerators) }

// --- devices -------------------------------------------------------------

// reconnectCycle is what a reconnect cycle's upload task hands to its
// session task; the uploaded channel orders the two.
type reconnectCycle struct {
	ids       []string
	uploadEnd time.Time
	uploaded  chan struct{} // closed when the upload phase is over
	failed    string        // upload-phase failure, "" if none
}

// newDevices creates the pool of simulated handhelds — the real
// device.Platform over rt — and subscribes each to the workload's
// application: the online step a handheld performs once, before it ever
// dispatches.
func newDevices(ctx context.Context, c *cluster, wl *workload, rt transport.RoundTripper) ([]*device.Platform, error) {
	devs := make([]*device.Platform, poolDevices)
	for i := range devs {
		plat, err := device.NewPlatform(device.Config{
			Owner:     fmt.Sprintf("pda-%02d", i), // fixed width: the name rides every request and is counted
			Transport: rt,
			Codec:     compress.LZSS,
			Secure:    wl.secure,
		})
		if err != nil {
			return nil, err
		}
		if err := plat.Subscribe(ctx, c.gateway, wl.app); err != nil {
			return nil, err
		}
		devs[i] = plat
	}
	return devs, nil
}

// --- seeded inputs ---------------------------------------------------------

// input is one journey's generated request: which device sends it and
// with what parameters. Inputs are a pure function of (workload, seed,
// index); the daemons only ever see the requests built from them.
type input struct {
	dev    int
	params []map[string]mavm.Value // one per dispatch (reconnect: four)
}

var memoWords = strings.Fields(`transfer balance account receipt branch teller ledger
	payment order invoice customer deposit credit debit statement rate loan cheque
	savings agent gateway mobile wireless handheld itinerary result document office`)

var memoSizes = [3]int{64, 512, 2048}

// memo builds a text payload of exactly size bytes from a small
// vocabulary, so it compresses like prose rather than like noise.
func memo(rng *rand.Rand, size int) string {
	var b strings.Builder
	for b.Len() < size {
		b.WriteString(memoWords[rng.Intn(len(memoWords))])
		b.WriteByte(' ')
	}
	return b.String()[:size]
}

func genInputs(wl *workload, banks []string, seed int64, n int) []input {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(poolDevices)
	inputs := make([]input, n)
	var sizes [3]int
	nextSize := len(sizes)
	// Payload sizes come in shuffled triples, one of each: the order is
	// seeded, the mix is not, so bytes per journey does not wander with
	// the seed's luck.
	pickSize := func() int {
		if nextSize == len(sizes) {
			sizes = memoSizes
			rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			nextSize = 0
		}
		nextSize++
		return sizes[nextSize-1]
	}
	echoParams := func(k int) map[string]mavm.Value {
		return map[string]mavm.Value{
			"memo": mavm.Str(memo(rng, pickSize())),
			"n":    mavm.Int(int64(k)),
		}
	}
	bankList := make([]mavm.Value, len(banks))
	for i, b := range banks {
		bankList[i] = mavm.Str(b)
	}
	for k := range inputs {
		in := input{dev: order[k%poolDevices]}
		switch wl.kind {
		case kindEcho:
			in.params = []map[string]mavm.Value{echoParams(k)}
		case kindReconnect:
			for j := 0; j < reconnectBatch; j++ {
				in.params = append(in.params, echoParams(k*reconnectBatch+j))
			}
		case kindEBank:
			// Directions alternate within a journey and the odd one out
			// alternates between journeys, so the two accounts' balances
			// random-walk around their start instead of draining.
			txs := make([]mavm.Value, ebankTxPerBank)
			for j := range txs {
				from, to := "alice", "bob"
				if (j+k)%2 == 1 {
					from, to = to, from
				}
				tx := mavm.NewMap()
				tx.MapEntries()["from"] = mavm.Str(from)
				tx.MapEntries()["to"] = mavm.Str(to)
				tx.MapEntries()["amount"] = mavm.Int(int64(1 + rng.Intn(20)))
				txs[j] = tx
			}
			in.params = []map[string]mavm.Value{{
				"banks":        mavm.NewList(bankList...),
				"transactions": mavm.NewList(txs...),
			}}
		}
		inputs[k] = in
	}
	return inputs
}

// --- journeys ----------------------------------------------------------------

// violation is a correctness failure — a wrong, duplicate or stray
// result, a dirty quiescence — as opposed to a journey that was merely
// slow or refused. Violations make the whole run incorrect.
type violation struct{ msg string }

func (v *violation) Error() string { return v.msg }

func violationf(format string, args ...any) error {
	return &violation{msg: fmt.Sprintf(format, args...)}
}

// journeyRec is the outcome of one journey (reconnect: one cycle).
type journeyRec struct {
	due        time.Duration // offset from the run's start
	lagMs      float64       // how late the generator started it
	dispatchMs float64       // due -> agent id(s) returned
	journeyMs  float64       // due -> verified result(s) at the device
	requests   int
	bytes      int
	failure    string // "" when verified
	wrong      bool   // the failure is a correctness violation, not slowness
}

// runner drives one open-loop run against a cluster.
type runner struct {
	wl      *workload
	c       *cluster
	devices []*device.Platform
	inputs  []input
	start   time.Time
	recs    []journeyRec
	cycles  []*reconnectCycle // reconnect only, one per journey index
	offline time.Duration     // reconnect only: minimum gap between upload and session

	seenMu sync.Mutex
	seen   map[string]bool // agent ids whose result has been delivered
}

// deliver records that a result reached its device and reports whether
// it is the first copy.
func (r *runner) deliver(agentID string) (first bool) {
	r.seenMu.Lock()
	defer r.seenMu.Unlock()
	if r.seen[agentID] {
		return false
	}
	r.seen[agentID] = true
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// await long-polls the device's mailbox until every wanted agent id has
// delivered its result (or the context ends) and returns the results by
// agent id. A duplicate or a stranger's result is a correctness
// violation reported through the error.
func (r *runner) await(ctx context.Context, dev *device.Platform, first []device.Delivery, want []string) (map[string]*wire.ResultDocument, error) {
	wanted := map[string]bool{}
	for _, id := range want {
		wanted[id] = true
	}
	got := map[string]*wire.ResultDocument{}
	take := func(ds []device.Delivery) error {
		for _, d := range ds {
			if d.Kind != push.KindResult || d.Result == nil {
				return violationf("unexpected %s delivery for %q: %s", d.Kind, d.AgentID, d.Note)
			}
			if !wanted[d.Result.AgentID] {
				return violationf("result for %q, which this journey never dispatched", d.Result.AgentID)
			}
			if !r.deliver(d.Result.AgentID) {
				return violationf("result for %q delivered twice", d.Result.AgentID)
			}
			got[d.Result.AgentID] = d.Result
		}
		return nil
	}
	if err := take(first); err != nil {
		return got, err
	}
	for len(got) < len(want) {
		ds, _, err := dev.PollMailbox(ctx, r.c.gateway, journeyDeadline)
		if terr := take(ds); terr != nil {
			return got, terr
		}
		if err != nil {
			return got, err
		}
		if err := ctx.Err(); err != nil {
			return got, err
		}
	}
	return got, nil
}

func verifyEcho(rd *wire.ResultDocument, params map[string]mavm.Value) error {
	if !rd.OK() {
		return violationf("echo ended %s: %s", rd.Status, rd.Error)
	}
	sent := mavm.NewMap()
	for k, v := range params {
		sent.MapEntries()[k] = v
	}
	if echoed, ok := rd.Get("echo"); !ok || !echoed.Equal(sent) {
		return violationf("echo of %s does not equal the sent parameters", rd.AgentID)
	}
	return nil
}

func verifyEBank(rd *wire.ResultDocument, params map[string]mavm.Value) error {
	if !rd.OK() {
		return violationf("e-banking ended %s: %s", rd.Status, rd.Error)
	}
	if v, _ := rd.Get("banksVisited"); !v.Equal(mavm.Int(ebankBanks)) {
		return violationf("banksVisited = %s, want %d", v, ebankBanks)
	}
	if v, _ := rd.Get("failures"); len(v.ListItems()) != 0 {
		return violationf("%d failed transaction(s): %s", len(v.ListItems()), v)
	}
	receipts, _ := rd.Get("receipts")
	txs := params["transactions"].ListItems()
	if len(receipts.ListItems()) != ebankBanks*len(txs) {
		return violationf("%d receipts, want %d", len(receipts.ListItems()), ebankBanks*len(txs))
	}
	for i, rc := range receipts.ListItems() {
		if want := txs[i%len(txs)].MapEntries()["amount"]; !rc.MapEntries()["amount"].Equal(want) {
			return violationf("receipt %d amount %s, want %s", i, rc.MapEntries()["amount"], want)
		}
	}
	return nil
}

func (rec *journeyRec) fail(err error) {
	rec.failure = err.Error()
	var v *violation
	rec.wrong = errors.As(err, &v)
}

// oneShot runs an echo or e-banking journey: dispatch, then wait on the
// mailbox session for the result and verify it.
func (r *runner) oneShot(ctx context.Context, k int, dueAt time.Time) {
	rec, in := &r.recs[k], &r.inputs[k]
	dev := r.devices[in.dev]
	a := &acct{}
	ctx, cancel := context.WithDeadline(context.WithValue(ctx, acctKey{}, a), dueAt.Add(journeyDeadline))
	defer cancel()
	defer func() { rec.requests, rec.bytes = a.requests, a.bytes }()

	id, err := dev.Dispatch(ctx, r.wl.app, in.params[0])
	rec.dispatchMs = msSince(dueAt)
	if err != nil {
		rec.fail(err)
		return
	}
	got, err := r.await(ctx, dev, nil, []string{id})
	rec.journeyMs = msSince(dueAt)
	if err != nil {
		rec.fail(err)
		return
	}
	verify := verifyEcho
	if r.wl.kind == kindEBank {
		verify = verifyEBank
	}
	if err := verify(got[id], in.params[0]); err != nil {
		rec.fail(err)
	}
}

// upload is the first half of a reconnect cycle: four dispatches back
// to back, after which the device goes offline.
func (r *runner) upload(ctx context.Context, k int, dueAt time.Time) {
	rec, in := &r.recs[k], &r.inputs[k]
	dev, cyc := r.devices[in.dev], r.cycles[k]
	defer close(cyc.uploaded)
	a := &acct{}
	ctx, cancel := context.WithDeadline(context.WithValue(ctx, acctKey{}, a), dueAt.Add(journeyDeadline))
	defer cancel()
	defer func() { rec.requests, rec.bytes = a.requests, a.bytes }()
	for _, params := range in.params {
		id, err := dev.Dispatch(ctx, r.wl.app, params)
		if err != nil {
			cyc.failed = err.Error()
			break
		}
		cyc.ids = append(cyc.ids, id)
	}
	rec.dispatchMs = msSince(dueAt)
	cyc.uploadEnd = time.Now()
}

// session is the second half: the device reconnects and one
// OpenSession collects everything that landed while it was away.
// journey_ms is timed from the session's due time.
func (r *runner) session(ctx context.Context, k int, dueAt time.Time) {
	rec, in := &r.recs[k], &r.inputs[k]
	dev, cyc := r.devices[in.dev], r.cycles[k]
	select {
	case <-cyc.uploaded:
	case <-ctx.Done():
		rec.fail(ctx.Err())
		return
	}
	if cyc.failed != "" {
		rec.fail(fmt.Errorf("upload: %s", cyc.failed))
		return
	}
	// The device stays offline at least r.offline; a late upload pushes
	// the session back and the wait is charged to the journey.
	if wait := time.Until(cyc.uploadEnd.Add(r.offline)); wait > 0 {
		time.Sleep(wait)
	}
	a := &acct{}
	ctx, cancel := context.WithDeadline(context.WithValue(ctx, acctKey{}, a), dueAt.Add(journeyDeadline))
	defer cancel()
	defer func() { rec.requests += a.requests; rec.bytes += a.bytes }()

	s, err := dev.OpenSession(ctx)
	if err != nil {
		rec.journeyMs = msSince(dueAt)
		rec.fail(err)
		return
	}
	got, err := r.await(ctx, dev, s.Deliveries, cyc.ids)
	rec.journeyMs = msSince(dueAt)
	if err != nil {
		rec.fail(err)
		return
	}
	for j, id := range cyc.ids {
		if err := verifyEcho(got[id], in.params[j]); err != nil {
			rec.fail(err)
			return
		}
	}
}

// --- the open loop -----------------------------------------------------------

// task is one scheduled piece of device activity.
type task struct {
	due time.Duration // offset from the run's start
	k   int           // journey index
	run func(ctx context.Context, k int, dueAt time.Time)
	// primary marks the task whose lateness is the journey's generator
	// lag (a reconnect cycle's session; an upload has its own due time
	// but the journey is timed from the session's).
	primary bool
}

// schedule lays the run's journeys out at a fixed interval: journey k is
// due at start + k/rate whatever happened to the ones before it.
func (r *runner) schedule() []task {
	interval := time.Duration(float64(time.Second) / r.wl.rate)
	var tasks []task
	for k := range r.inputs {
		due := time.Duration(k) * interval
		if r.wl.kind != kindReconnect {
			r.recs[k].due = due
			tasks = append(tasks, task{due: due, k: k, run: r.oneShot, primary: true})
			continue
		}
		r.recs[k].due = due + reconnectOffset
		r.cycles[k] = &reconnectCycle{uploaded: make(chan struct{})}
		tasks = append(tasks,
			task{due: due, k: k, run: r.upload},
			task{due: due + reconnectOffset, k: k, run: r.session, primary: true})
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].due < tasks[j].due })
	return tasks
}

// runTasks executes a due-ordered schedule with a fixed number of
// generator goroutines, starting the clock at r.start. A generator that
// is late does not skip or delay the schedule: every task is handed its
// due time and measures from it, so a stall is charged to every journey
// it held up (no coordinated omission), and lagMs records how late each
// one started.
func (r *runner) runTasks(ctx context.Context, tasks []task, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := &tasks[i]
				dueAt := r.start.Add(t.due)
				if wait := time.Until(dueAt); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				if t.primary {
					r.recs[t.k].lagMs = msSince(dueAt)
				}
				t.run(ctx, t.k, dueAt)
			}
		}()
	}
	wg.Wait()
}

// drain empties every device's mailbox after the run, so results that
// arrived past their journey's deadline are collected (and checked for
// duplicates) before the quiescence scrape counts pending entries.
func (r *runner) drain(ctx context.Context) (late int, err error) {
	for _, dev := range r.devices {
		ds, _, perr := dev.PollMailbox(ctx, r.c.gateway, 0)
		if perr != nil {
			return late, perr
		}
		for _, d := range ds {
			if d.Kind == push.KindResult && d.Result != nil {
				if !r.deliver(d.Result.AgentID) {
					return late, violationf("result for %q delivered twice", d.Result.AgentID)
				}
				late++
			}
		}
	}
	return late, nil
}
