package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// Tracing lives entirely in the benchmark: timing decorators on the
// three public seams every component already has — its
// transport.Handler, its outbound transport.RoundTripper and its
// rms.Stores. Nothing inside the program is instrumented. Spans are
// kept in memory and written out when the pass ends.

// category groups spans into the rows of the budget table.
type category int

const (
	catDevice   category = iota // device.Platform code (journey root and its calls)
	catRT                       // a client round trip; self time is the HTTP/TCP stack
	catGateway                  // a gateway handler
	catPollPark                 // the gateway's long-poll handler: parked waiting for the wake-up
	catMAS                      // a MAS host handler
	catJournal                  // an agent-journal store call
	catMailbox                  // a mailbox store call
	catDocs                     // a File Directory (documents) store call
	numCategories
)

var categoryNames = [numCategories]string{
	"device", "transport stack", "gateway self", "wake-up wait (parked poll + unspanned agent run)",
	"mas self", "rms journal", "rms mailbox", "rms documents",
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Parent is the index (within the journey's
// span list as written to the trace file) of the innermost span whose
// interval contains this one, or -1.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Journey int64  `json:"journey"`
	Parent  int    `json:"parent"`
	cat     category
	self    int64
}

// tracer records spans. Only one journey is in flight during a traced
// pass, so a span belongs to the journey current when it begins, and
// parentage is interval containment.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool  // false: decorators pass straight through
	journey atomic.Int64 // current journey id

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// mark is where a span began: the time and the journey then current.
// Asynchronous tail work can outlive its journey; it still belongs to
// the journey that started it.
type mark struct{ at, journey int64 }

func (t *tracer) begin() mark {
	return mark{at: int64(time.Since(t.epoch)), journey: t.journey.Load()}
}

func (t *tracer) record(name string, cat category, m mark) {
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: m.at, End: end, Journey: m.journey, Parent: -1, cat: cat})
	t.mu.Unlock()
}

// --- decorators ------------------------------------------------------------

// tracedHandler wraps a component's transport.Handler: one span per
// served request, named after the component and the path.
type tracedHandler struct {
	t         *tracer
	component string
	cat       category
	inner     transport.Handler
}

func (h tracedHandler) Serve(ctx context.Context, req *transport.Request) *transport.Response {
	if !h.t.on.Load() {
		return h.inner.Serve(ctx, req)
	}
	start := h.t.begin()
	resp := h.inner.Serve(ctx, req)
	cat := h.cat
	if cat == catGateway && req.Path == "/pdagent/mailbox/poll" {
		cat = catPollPark
	}
	h.t.record("serve:"+h.component+" "+req.Path, cat, start)
	return resp
}

// tracedRT wraps a component's outbound transport.RoundTripper: one
// span per round trip. seen, when set, is shown every exchange (the
// device side uses it to capture the workload's own bytes).
type tracedRT struct {
	t         *tracer
	component string
	inner     transport.RoundTripper
	seen      func(req *transport.Request, resp *transport.Response)
}

func (r tracedRT) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if !r.t.on.Load() {
		return r.inner.RoundTrip(ctx, addr, req)
	}
	start := r.t.begin()
	resp, err := r.inner.RoundTrip(ctx, addr, req)
	r.t.record("rt:"+r.component+" "+req.Path, catRT, start)
	if r.seen != nil && err == nil {
		r.seen(req, resp)
	}
	return resp, err
}

// tracedStore wraps an rms.Store: one span per record operation. The
// bookkeeping reads (IDs, Size, ...) are not on the journey path and
// pass through untimed. Unwrap keeps rms.WALOf and rms.StoreErr working
// on the wrapped store.
type tracedStore struct {
	rms.Store
	t    *tracer
	name string
	cat  category
}

func (s tracedStore) Unwrap() rms.Store { return s.Store }

// timed opens a span for one store operation and returns the call
// that closes it.
func (s tracedStore) timed(op string) func() {
	if !s.t.on.Load() {
		return func() {}
	}
	start := s.t.begin()
	return func() { s.t.record("rms:"+s.name+" "+op, s.cat, start) }
}

func (s tracedStore) Add(data []byte) (int, error) {
	defer s.timed("Add")()
	return s.Store.Add(data)
}

func (s tracedStore) Get(id int) ([]byte, error) {
	defer s.timed("Get")()
	return s.Store.Get(id)
}

func (s tracedStore) Set(id int, data []byte) error {
	defer s.timed("Set")()
	return s.Store.Set(id, data)
}

func (s tracedStore) Delete(id int) error {
	defer s.timed("Delete")()
	return s.Store.Delete(id)
}

// --- self time and the budget ---------------------------------------------------

// resolve assigns every span its parent — the innermost span of the
// same journey whose interval contains it — and its self time. spans
// must all belong to one journey; they are sorted in place by start
// time.
//
// With strictly nested spans, self time is a span's duration minus the
// part its children cover. A journey is not strictly nested: the agent
// runs on its own goroutine, so its journal and mailbox writes overlap
// the device's next request instead of sitting inside it. Self time is
// therefore defined instant by instant (see sweep): every instant is
// credited to exactly one of the spans active then, which for nested
// spans is the classic definition and for overlapping ones splits the
// overlap instead of counting it twice.
func resolve(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End // the longer span is the parent
	})
	var stack []int
	for i := range spans {
		s := &spans[i]
		// Spans arrive in start order, so anything a popped span could
		// still contain, the span that displaced it contains too.
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
		s.self = 0
	}
	if len(spans) == 0 {
		return
	}
	from, to := spans[0].Start, spans[0].End
	for i := range spans {
		if spans[i].End > to {
			to = spans[i].End
		}
	}
	sweep(spans, from, to, func(i int, d int64) { spans[i].self += d })
}

// sweep walks [from, to) boundary by boundary and credits each piece to
// one span active throughout it: the one that started last — the
// innermost, when spans nest. One exception keeps the budget causal: a
// parked long-poll is by definition waiting for something else, so
// while any span that is not one of its ancestors is active (the agent's
// mailbox commit it is waiting for, say), that span gets the time, and
// the poll keeps only the time in which nothing else ran. spans must be
// sorted by start (resolve's order).
func sweep(spans []span, from, to int64, credit func(i int, d int64)) {
	bounds := make([]int64, 0, 2*len(spans)+2)
	bounds = append(bounds, from, to)
	for i := range spans {
		for _, b := range [2]int64{spans[i].Start, spans[i].End} {
			if b > from && b < to {
				bounds = append(bounds, b)
			}
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		if lo == hi {
			continue
		}
		active := func(i int) bool { return spans[i].Start <= lo && spans[i].End >= hi }
		winner := -1
		for i := len(spans) - 1; i >= 0; i-- { // last started first
			if active(i) {
				winner = i
				break
			}
		}
		if winner < 0 {
			continue
		}
		if spans[winner].cat == catPollPark {
			for i := winner - 1; i >= 0; i-- {
				if active(i) && spans[i].End < spans[winner].End { // not an ancestor
					winner = i
					break
				}
			}
		}
		credit(winner, hi-lo)
	}
}

// journeyRootName marks the span that brackets a whole journey.
const journeyRootName = "journey"

// budget is one journey's time split by category.
type budget struct {
	total int64                // the root span's duration
	self  [numCategories]int64 // the root's interval, credited span by span
}

// journeyBudget resolves one journey's spans and splits the journey
// root's interval by category. Every instant of the root is credited to
// exactly one span, so the categories sum to the journey time; work
// that outlives the journey (asynchronous clean-up) is cut off at the
// root's end. ok is false when the journey has no root span.
func journeyBudget(spans []span) (b budget, ok bool) {
	resolve(spans)
	for i := range spans {
		if spans[i].Name == journeyRootName {
			root := &spans[i]
			b.total = root.End - root.Start
			sweep(spans, root.Start, root.End, func(i int, d int64) { b.self[spans[i].cat] += d })
			return b, true
		}
	}
	return b, false
}

func (b budget) sum() int64 {
	var s int64
	for _, v := range b.self {
		s += v
	}
	return s
}

// byJourney groups spans by journey id, ids ascending.
func byJourney(spans []span) (ids []int64, groups map[int64][]span) {
	groups = map[int64][]span{}
	for _, s := range spans {
		if _, ok := groups[s.Journey]; !ok {
			ids = append(ids, s.Journey)
		}
		groups[s.Journey] = append(groups[s.Journey], s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, groups
}

// sumSpans totals the matching spans of one resolved journey: their
// self time, or with self false their full duration.
func sumSpans(spans []span, self bool, match func(*span) bool) int64 {
	var total int64
	for i := range spans {
		if !match(&spans[i]) {
			continue
		}
		if self {
			total += spans[i].self
		} else {
			total += spans[i].End - spans[i].Start
		}
	}
	return total
}
