package metrics

import (
	"sync"
	"time"
)

// Span is one hop of an agent journey as seen by one member. The
// trace id is the agent id minted at dispatch (§11): it already rides
// every wire document on the journey's path — the dispatch response's
// "agent" header, the ATP image, the result document, the mailbox
// event id — so tracing adds no bytes to the protocol and no
// allocations to the hot path.
type Span struct {
	// Trace is the journey's trace id (the agent id).
	Trace string
	// Member is the member that recorded the span (gateway or MAS
	// host address).
	Member string
	// Op names the hop: dispatch, forward, admit, admit-failed,
	// transfer-out, transfer-in, deliver, result, relay-result,
	// adopt-result, mailbox, shed.
	Op string
	// Detail carries the op's object: a code id, a target address,
	// an origin member, an owner, a shed reason.
	Detail string
	// At is the wall clock at record time, unix nanoseconds.
	At int64
	// Seq orders spans recorded by the same member at the same
	// nanosecond.
	Seq uint64
}

// DefaultTraceCap is the span capacity of a ring when the caller does
// not choose one: 4096 spans ≈ a few hundred recent journeys.
const DefaultTraceCap = 4096

// TraceRing is a fixed-capacity ring of recent spans, one per member.
// Record copies value fields under a short mutex — no allocation, so
// hot paths (dispatch, transfer) can record unconditionally. When the
// ring wraps, the oldest spans fall off: tracing is an operational
// flight recorder, not an audit log.
type TraceRing struct {
	member string

	mu    sync.Mutex
	spans []Span
	n     uint64 // total spans ever recorded
}

// NewTraceRing returns a ring identified as member with the given
// span capacity (DefaultTraceCap if cap <= 0).
func NewTraceRing(member string, capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceRing{member: member, spans: make([]Span, 0, capacity)}
}

// Member returns the member name spans are recorded under.
func (r *TraceRing) Member() string { return r.member }

// Record appends one span. The strings are retained as-is (callers
// pass ids and addresses that already exist — never concatenate on a
// hot path).
func (r *TraceRing) Record(trace, op, detail string) {
	r.mu.Lock()
	sp := Span{
		Trace:  trace,
		Member: r.member,
		Op:     op,
		Detail: detail,
		At:     time.Now().UnixNano(),
		Seq:    r.n,
	}
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, sp)
	} else {
		r.spans[int(r.n)%cap(r.spans)] = sp
	}
	r.n++
	r.mu.Unlock()
}

// Spans returns this member's spans for a trace id, oldest first.
func (r *TraceRing) Spans(trace string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	n := len(r.spans)
	start := 0
	if uint64(n) == r.n || n == 0 {
		// Not wrapped: spans[0] is the oldest.
	} else {
		start = int(r.n) % cap(r.spans)
	}
	for i := 0; i < n; i++ {
		sp := r.spans[(start+i)%n]
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

// Total returns how many spans were ever recorded; Dropped how many
// fell off the ring. Both feed scrape-time gauges.
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns the number of spans evicted by ring wrap-around.
func (r *TraceRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n - uint64(len(r.spans))
}
