package gateway

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// The pins: machine-portable quantities of the dispatch path that CI
// gates — allocations per dispatch, and what admission control does to
// goodput and to a meek tenant beside a flooding one, on a virtual
// clock. Wall-clock numbers belong to benchmark/.

// pinFuel and pinSlowSrc: an echo that needs more than one slice at a
// gateway with FuelSlice pinFuel, so its admission suspends it (and
// journals it, once) and Spawn receives the rest of its journey.
const (
	pinFuel    = 64
	pinSlowSrc = `let i = 0; while i < 64 { i = i + 1; } deliver("echo", params());`
)

// TestDispatchAllocsPerOp pins the allocations of one whole dispatch —
// pack on the device side; unpack, key check, replay window, program
// cache hit, admission with the agent's first slice, and for the echo
// agent the rest of its zero-hop journey on the gateway side. The
// journaled row suspends its agent in the admission, so the WAL commit
// of its record is inside the measurement. The upload names its code by
// hash, as a device's does. Bounds are the figure read when the pins
// were last measured (58 and 57) + 20 %; the echo row fell from 66 when
// home delivery stopped marshalling the agent it hands over, and reads
// 59 by reference (the fifth root attribute grows the parser's
// attribute slice once more than the source string it replaces). The
// codec-3 rows upload the body a device sends a gateway whose answers
// it has read in that codec; its inflater costs one allocation more.
func TestDispatchAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, row := range []struct {
		name      string
		src       string
		journaled bool
		codec     compress.Codec
		max       float64 // allocs/op
	}{
		{"echo", echoSrc, false, compress.LZSS, 70},
		{"journaled", pinSlowSrc, true, compress.LZSS, 68},
		{"echo codec 3", echoSrc, false, compress.FlateDict, 70},
		{"journaled codec 3", pinSlowSrc, true, compress.FlateDict, 68},
	} {
		t.Run(row.name, func(t *testing.T) {
			f := newFixtureCfg(t, func(c *Config) {
				c.Spawn = func(func()) {}
				c.FuelSlice = pinFuel
				if row.journaled {
					c.Journal = openTestWAL(t, "journal.wal")
				}
			})
			defer f.gw.Close()
			f.addPackage(t, "pin", row.src)
			sub := f.subscribe(t, "pin", "dev-pin")
			key, hash := pisec.DispatchKey("pin", sub.Secret), wire.CodeHash(row.src)
			handler := f.gw.Handler()
			var body, nonce []byte
			seq := 0
			got := testing.AllocsPerRun(200, func() {
				seq++
				nonce = strconv.AppendInt(append(nonce[:0], 'n', '-'), int64(seq), 10)
				pi := &wire.PackedInformation{
					CodeID: "pin", DispatchKey: key, Owner: "dev-pin",
					Nonce: string(nonce), CodeHash: hash,
				}
				var err error
				if body, err = wire.AppendPack(body[:0], pi, row.codec, nil); err != nil {
					panic(err)
				}
				resp := handler.Serve(context.Background(), &transport.Request{Path: "/pdagent/dispatch", Body: body})
				if !resp.IsOK() {
					panic(resp.Text())
				}
			})
			t.Logf("%s dispatch: %.0f allocs/op (bound %.0f)", row.name, got, row.max)
			if got > row.max {
				t.Fatalf("%s dispatch costs %.0f allocs/op, bound %.0f", row.name, got, row.max)
			}
		})
	}
}

// TestMailboxAnswerAllocsPerOp pins the append-built mailbox answer: a
// result's delivery, picked codec and counter row included, is two
// allocations, the document and its DEFLATE frame, in either codec (the
// node tree it replaced made about twenty).
func TestMailboxAnswerAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	f := newMailboxFixture(t, nil)
	entries := []*push.Entry{{Seq: 7, Kind: push.KindResult, AgentID: "ag-gw-t-7", EventID: "result:ag-gw-t-7",
		Body: []byte(`<?xml version="1.0" encoding="UTF-8"?><result-document agent="ag-gw-t-7" status="done"/>`), Enqueued: time.Now()}}
	for _, accept := range []string{"", "3"} {
		req := &transport.Request{Path: "/pdagent/mailbox/poll"}
		if accept != "" {
			req.SetHeader("accept", accept)
		}
		if got := testing.AllocsPerRun(100, func() { f.gw.mailboxFrame(req, "dev-pin", entries, 7, 0) }); got > 2 {
			t.Fatalf("accept %q: a mailbox answer costs %.0f allocs, want 2", accept, got)
		}
	}
}

// vtStream is one deterministic arrival stream of the virtual-time
// driver: offered dispatches, one every `every`, from one device — and,
// under the tenant control plane, one account of the given weight.
type vtStream struct {
	name    string
	offered int
	every   time.Duration
	weight  int
}

// vtConfig shapes one virtual-time run: the streams against one real
// gateway whose admitted agents drain through a single server that
// takes `service` of virtual time each (a D/D/1 queue). fair selects
// the tenant control plane — weighted-fair shed, weighted-fair service
// order; otherwise one flat watermark and first-come service.
// maxInFlight 0 runs with admission control off.
type vtConfig struct {
	streams     []vtStream
	service     time.Duration
	slo         time.Duration
	maxInFlight int
	fair        bool
}

// vtPoint is one stream's outcome. Counts are exact and quantiles come
// from the full sojourn population (rank ceil(q·n)): arrivals and
// service are arithmetic on the virtual clock, the shed decisions are
// the real gateway reading its real in-flight gauge, so every figure is
// the same on every machine.
type vtPoint struct {
	offered, admitted, shed, withinSLO int
	p50, p99                           time.Duration
}

// runVirtualTime drives cfg. The gateway is real — unpack, key check,
// nonce window, tenant admission, the in-flight shed — and only time is
// simulated: every admission suspends its agent after one short slice,
// Spawn hands the driver the rest of the journey, and the driver runs
// it at the agent's virtual completion instant, so the in-flight gauges
// the shed decisions read equal the virtual backlog.
func runVirtualTime(t *testing.T, cfg vtConfig) map[string]vtPoint {
	t.Helper()
	var spawned []func()
	mut := func(c *Config) {
		c.Spawn = func(fn func()) { spawned = append(spawned, fn) }
		c.FuelSlice = pinFuel
		if cfg.maxInFlight > 0 {
			c.ShedInFlight = cfg.maxInFlight
		}
	}
	var f *fixture
	if cfg.fair {
		accounts := make([]*tenant.Tenant, len(cfg.streams))
		for i, s := range cfg.streams {
			accounts[i] = &tenant.Tenant{ID: s.name, Secret: "s-" + s.name, Limits: tenant.Limits{Weight: s.weight}}
		}
		f = newTenantFixture(t, mut, accounts...)
	} else {
		f = newFixtureCfg(t, mut)
	}
	defer f.gw.Close()
	f.addPackage(t, "pin", pinSlowSrc)

	type stream struct {
		vtStream
		sub      *wire.Subscription
		flow     string // service-order flow: the account, or one shared flow
		sent     int
		point    vtPoint
		sojourns []time.Duration
	}
	streams := make([]*stream, len(cfg.streams))
	for i, s := range cfg.streams {
		st := &stream{vtStream: s}
		if cfg.fair {
			st.sub, _ = f.subscribeTenant(t, "pin", "dev-"+s.name, s.name, "s-"+s.name)
			st.flow = s.name
		} else {
			st.sub = f.subscribe(t, "pin", "dev-"+s.name)
		}
		streams[i] = st
	}

	type job struct {
		from    *stream
		run     func()
		arrival time.Duration
	}
	// One flow through a weighted-fair queue is a FIFO, whatever the
	// weights of its items.
	backlog := newWFQ()
	var serving *job
	var servingEnds, serverFree time.Duration
	// advance runs every virtual completion due by now.
	advance := func(now time.Duration) {
		for {
			if serving == nil {
				_, next, ok := backlog.Dequeue()
				if !ok {
					return
				}
				j := next.(job)
				start := serverFree
				if j.arrival > start {
					start = j.arrival
				}
				serving, servingEnds = &j, start+cfg.service
			}
			if servingEnds > now {
				return
			}
			serving.run() // the agent finishes and comes home; in-flight drops
			sojourn := servingEnds - serving.arrival
			serving.from.sojourns = append(serving.from.sojourns, sojourn)
			if sojourn <= cfg.slo {
				serving.from.point.withinSLO++
			}
			serverFree, serving = servingEnds, nil
		}
	}

	for {
		// Next arrival across the streams; the first-listed wins a tie.
		var st *stream
		var now time.Duration
		for _, s := range streams {
			if at := time.Duration(s.sent) * s.every; s.sent < s.offered && (st == nil || at < now) {
				st, now = s, at
			}
		}
		if st == nil {
			break
		}
		st.sent++
		advance(now)
		before := len(spawned)
		resp := upload(t, f, f.packPI(t, f.echoPI(st.sub, "dev-"+st.name), false), nil)
		st.point.offered++
		switch {
		case resp.Status == transport.StatusUnavailable || resp.Status == transport.StatusTooManyRequests:
			st.point.shed++
			continue
		case !resp.IsOK():
			t.Fatalf("dispatch %s/%d: %d %s", st.name, st.sent, resp.Status, resp.Text())
		case len(spawned) != before+1:
			t.Fatalf("dispatch %s/%d admitted without suspending", st.name, st.sent)
		}
		st.point.admitted++
		backlog.Enqueue(st.flow, st.weight, job{from: st, run: spawned[before], arrival: now})
	}
	advance(1 << 62) // drain everything admitted

	points := make(map[string]vtPoint, len(streams))
	for _, s := range streams {
		if n := len(s.sojourns); n > 0 {
			sort.Slice(s.sojourns, func(i, j int) bool { return s.sojourns[i] < s.sojourns[j] })
			rank := func(q float64) time.Duration { return s.sojourns[int(q*float64(n)+0.9999999)-1] }
			s.point.p50, s.point.p99 = rank(0.50), rank(0.99)
		}
		points[s.name] = s.point
	}
	return points
}

// TestVirtualTimeAdmission pins what admission control buys, exactly.
//
// Overload: arrivals at twice the service rate for 2000 dispatches
// against a 20 ms delivery objective. Without shedding every arrival is
// admitted and the backlog grows by one agent a millisecond — the
// server is busy throughout and 39 deliveries make the objective. With
// a 16-agent watermark the excess bounces retryably at the door and
// every admitted agent is home within 16 ms.
//
// Noisy neighbour: a hog offers 4× capacity while a meek tenant of
// weight 4 offers 10 % of it, watermark 32. Under the tenant control
// plane the hog absorbs the refusals and the meek tenant's latency
// stays within twice what it sees alone (2 ms, 1 ms), every delivery
// inside the objective; under one flat watermark with
// first-come service the hog holds the admission slots and the server,
// and the meek tenant rides its backlog.
func TestVirtualTimeAdmission(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	flood := vtStream{name: "flood", offered: 2000, every: ms / 2}
	meek := vtStream{name: "meek", offered: 200, every: 10 * ms, weight: 4}
	hog := vtStream{name: "hog", offered: 8000, every: ms / 4, weight: 1}
	overload := func(watermark int) vtConfig {
		return vtConfig{streams: []vtStream{flood}, service: ms, slo: 20 * ms, maxInFlight: watermark}
	}
	neighbours := func(fair bool, streams ...vtStream) vtConfig {
		return vtConfig{streams: streams, service: ms, slo: 20 * ms, maxInFlight: 32, fair: fair}
	}

	for _, row := range []struct {
		name string
		cfg  vtConfig
		want map[string]vtPoint
	}{
		{"overload/shed=off", overload(0), map[string]vtPoint{
			"flood": {offered: 2000, admitted: 2000, shed: 0, withinSLO: 39, p50: 500500 * us, p99: 990500 * us},
		}},
		{"overload/shed=on", overload(16), map[string]vtPoint{
			"flood": {offered: 2000, admitted: 1015, shed: 985, withinSLO: 1015, p50: 16 * ms, p99: 16 * ms},
		}},
		{"fairness/solo", neighbours(true, meek), map[string]vtPoint{
			"meek": {offered: 200, admitted: 200, shed: 0, withinSLO: 200, p50: ms, p99: ms},
		}},
		{"fairness/fair", neighbours(true, meek, hog), map[string]vtPoint{
			"meek": {offered: 200, admitted: 200, shed: 0, withinSLO: 200, p50: 2 * ms, p99: 2 * ms},
			"hog":  {offered: 8000, admitted: 1831, shed: 6169, withinSLO: 22, p50: 35 * ms, p99: 36 * ms},
		}},
		{"fairness/fifo", neighbours(false, meek, hog), map[string]vtPoint{
			"meek": {offered: 200, admitted: 200, shed: 0, withinSLO: 1, p50: 32 * ms, p99: 32 * ms},
			"hog":  {offered: 8000, admitted: 1831, shed: 6169, withinSLO: 25, p50: 32 * ms, p99: 32 * ms},
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			got := runVirtualTime(t, row.cfg)
			for name, want := range row.want {
				if got[name] != want {
					t.Errorf("%s = %+v, want %+v", name, got[name], want)
				}
			}
		})
	}
}

// wfq is a weighted-fair queue over opaque items: each tenant's
// backlog drains in arrival order, and across tenants service is
// interleaved in proportion to weight using virtual finish times
// (classic start-time fair queueing: an item's virtual finish is
// max(virtual clock, tenant's last finish) + 1/weight, and Dequeue
// always serves the smallest finish). A weight-4 tenant therefore
// gets 4 items served for every 1 of a weight-1 tenant while both
// are backlogged, yet an idle tenant's unused share is redistributed
// instead of wasted.
//
// It is the service-order model of the virtual-time admission pins
// below, which contrast weighted-fair service with FIFO under a noisy
// neighbour (production admission decides at the door, from the
// ledger; nothing in the gateway queues dispatches).
type wfq struct {
	mu     sync.Mutex
	items  wfqHeap
	vtime  float64            // virtual clock: finish tag of the last dequeued item
	finish map[string]float64 // tenant -> last assigned finish tag
	seq    uint64             // FIFO tie-break within equal finish tags
}

func newWFQ() *wfq {
	return &wfq{finish: map[string]float64{}}
}

// Enqueue adds an item for a tenant with the given weight (values < 1
// are treated as 1).
func (q *wfq) Enqueue(tenantID string, weight int, payload any) {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	start := q.vtime
	if f, ok := q.finish[tenantID]; ok && f > start {
		start = f
	}
	finish := start + 1/float64(weight)
	q.finish[tenantID] = finish
	q.seq++
	heap.Push(&q.items, wfqItem{tenant: tenantID, payload: payload, finish: finish, seq: q.seq})
	q.mu.Unlock()
}

// Dequeue removes and returns the item with the smallest virtual
// finish time; ok is false when the queue is empty.
func (q *wfq) Dequeue() (tenantID string, payload any, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return "", nil, false
	}
	it := heap.Pop(&q.items).(wfqItem)
	q.vtime = it.finish
	if len(q.items) == 0 {
		// Empty queue: reset the virtual clock so tag magnitudes stay
		// bounded over a long-running gateway.
		q.vtime = 0
		for k := range q.finish {
			delete(q.finish, k)
		}
	}
	return it.tenant, it.payload, true
}

type wfqItem struct {
	tenant  string
	payload any
	finish  float64
	seq     uint64
}

type wfqHeap []wfqItem

func (h wfqHeap) Len() int { return len(h) }
func (h wfqHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h wfqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wfqHeap) Push(x any)   { *h = append(*h, x.(wfqItem)) }
func (h *wfqHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func TestWFQWeightedOrdering(t *testing.T) {
	q := newWFQ()
	// Backlog both tenants, then drain: heavy (weight 3) must receive
	// ~3 services for every light one.
	for i := 0; i < 30; i++ {
		q.Enqueue("heavy", 3, fmt.Sprintf("h%d", i))
	}
	for i := 0; i < 30; i++ {
		q.Enqueue("light", 1, fmt.Sprintf("l%d", i))
	}
	heavyFirst12 := 0
	var order []string
	for {
		tenant, _, ok := q.Dequeue()
		if !ok {
			break
		}
		order = append(order, tenant)
		if len(order) <= 12 && tenant == "heavy" {
			heavyFirst12++
		}
	}
	if len(order) != 60 {
		t.Fatalf("drained %d items, want 60", len(order))
	}
	// In the first 12 services a 3:1 split means ~9 heavy.
	if heavyFirst12 < 8 || heavyFirst12 > 10 {
		t.Fatalf("heavy got %d of the first 12 services, want ~9 (3:1 weights)", heavyFirst12)
	}
	// Per-tenant FIFO: heavy's own items must drain in order.
	q2 := newWFQ()
	q2.Enqueue("a", 1, 1)
	q2.Enqueue("a", 1, 2)
	q2.Enqueue("a", 1, 3)
	for want := 1; want <= 3; want++ {
		_, p, ok := q2.Dequeue()
		if !ok || p.(int) != want {
			t.Fatalf("tenant-local order broken: got %v want %d", p, want)
		}
	}
}

// TestWFQConcurrent exercises enqueue/dequeue races under -race and
// checks conservation.
func TestWFQConcurrent(t *testing.T) {
	q := newWFQ()
	const n = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				q.Enqueue(fmt.Sprintf("t%d", w), w+1, i)
			}
		}(w)
	}
	var got int64
	var mu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, _, ok := q.Dequeue()
				if !ok {
					mu.Lock()
					done := got
					mu.Unlock()
					if done == 4*n {
						return
					}
					continue
				}
				mu.Lock()
				got++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got != 4*n {
		t.Fatalf("dequeued %d items, want %d", got, 4*n)
	}
}
