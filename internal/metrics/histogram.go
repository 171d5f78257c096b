package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a concurrent log-linear latency histogram in
// microseconds: exact below 32µs, then 32 sub-buckets per power of two,
// bounding quantile error to ~3% (the HDR-histogram trick). The bucket
// array is fixed-size atomics — Observe is lock-free, allocation-free,
// and safe to call concurrently with scrapes, which is what the
// dispatch path needs. The churnsim scenarios (§8) record their
// virtual-time latencies into it too. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // total µs observed
	max     atomic.Uint64 // largest µs observed
	buckets [histBuckets]atomic.Uint64
}

// histSubBits gives 2^5 = 32 sub-buckets per power of two.
const histSubBits = 5

// histBuckets is bucketOf(math.MaxUint64) + 1: (64-5)<<5 + 31 + 1.
const histBuckets = (64-histSubBits)<<histSubBits + (1 << histSubBits)

// bucketOf maps a microsecond value to its bucket index.
func bucketOf(us uint64) int {
	if us < 1<<histSubBits {
		return int(us)
	}
	k := bits.Len64(us) - histSubBits
	return k<<histSubBits + int(us>>uint(k))
}

// bucketMid returns a representative value for a bucket.
func bucketMid(b int) uint64 {
	if b < 1<<histSubBits {
		return uint64(b)
	}
	k := uint(b >> histSubBits)
	sub := uint64(b & (1<<histSubBits - 1))
	return sub<<k + 1<<(k-1)
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.RecordUS(uint64(d / time.Microsecond))
}

// RecordUS records one microsecond value.
func (h *Histogram) RecordUS(us uint64) {
	h.buckets[bucketOf(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumUS returns the total of all observations in microseconds.
func (h *Histogram) SumUS() uint64 { return h.sum.Load() }

// MaxUS returns the largest observation in microseconds.
func (h *Histogram) MaxUS() uint64 { return h.max.Load() }

// Quantile returns the q-quantile (0 < q <= 1) in microseconds, 0 for
// an empty histogram. Concurrent observers may land between the count
// load and the bucket scan; the result is a sample from "around now".
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank >= total {
		// The top rank is the maximum itself — more precise than the
		// top occupied bucket's midpoint.
		return h.max.Load()
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			mid := bucketMid(i)
			if m := h.max.Load(); mid > m {
				// The top occupied bucket's midpoint can overshoot the
				// true maximum; never report a quantile above it.
				mid = m
			}
			return mid
		}
	}
	return h.max.Load()
}

// MeanUS returns the mean observation in microseconds.
func (h *Histogram) MeanUS() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}
