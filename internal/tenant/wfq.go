package tenant

import (
	"container/heap"
	"sync"
)

// WFQ is a weighted-fair queue over opaque items: each tenant's
// backlog drains in arrival order, and across tenants service is
// interleaved in proportion to weight using virtual finish times
// (classic start-time fair queueing: an item's virtual finish is
// max(virtual clock, tenant's last finish) + 1/weight, and Dequeue
// always serves the smallest finish). A weight-4 tenant therefore
// gets 4 items served for every 1 of a weight-1 tenant while both
// are backlogged, yet an idle tenant's unused share is redistributed
// instead of wasted.
//
// The gateway's virtual-time admission test uses it to contrast
// weighted-fair service with FIFO under a noisy neighbour; the
// admission layer uses the same virtual-time bookkeeping for its
// fair-share shed decisions.
type WFQ struct {
	mu     sync.Mutex
	items  wfqHeap
	vtime  float64            // virtual clock: finish tag of the last dequeued item
	finish map[string]float64 // tenant -> last assigned finish tag
	seq    uint64             // FIFO tie-break within equal finish tags
}

// NewWFQ returns an empty weighted-fair queue.
func NewWFQ() *WFQ {
	return &WFQ{finish: map[string]float64{}}
}

// Enqueue adds an item for a tenant with the given weight (values < 1
// are treated as 1).
func (q *WFQ) Enqueue(tenantID string, weight int, payload any) {
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
func (q *WFQ) Dequeue() (tenantID string, payload any, ok bool) {
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

// Len reports the queued item count.
func (q *WFQ) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
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
