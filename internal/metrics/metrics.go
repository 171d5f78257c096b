// Package metrics is PDAgent's zero-dependency observability kit:
// atomic counters and gauges, a concurrent log-linear latency
// histogram (the same bucket geometry as churnsim's, §8), per-member
// trace-span rings for itinerary reconstruction, and a leveled
// component-tagged logger. A Registry renders everything in Prometheus
// text exposition format for the `/metrics` endpoint both daemons
// mount (DESIGN.md §11).
//
// The kit is built for hot paths: counters and gauges are single
// atomics, histograms record into a fixed bucket array without
// allocating, and gauge *functions* defer all computation to scrape
// time — registering one costs nothing per operation, which is how
// the dispatch path stays at its 39 allocs/op budget while fully
// instrumented.
package metrics

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pdagent/internal/transport"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a family of counters split by one label (e.g. a
// per-tenant dispatch count). With resolves a label value to its
// counter once; hot paths cache the returned *Counter handle so the
// per-operation cost is the same single atomic as an unlabeled
// counter.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the counter for one label value, creating it if
// needed. Cache the handle on hot paths.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// snapshot returns the label values sorted, for a stable scrape.
func (v *CounterVec) snapshot() ([]string, map[string]*Counter) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.m))
	m := make(map[string]*Counter, len(v.m))
	for k, c := range v.m {
		keys = append(keys, k)
		m[k] = c
	}
	sort.Strings(keys)
	return keys, m
}

// metricKind discriminates what a registered name renders as.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindCounterVec
	kindGaugeVecFunc
	kindCounterVecFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterVec, kindCounterVecFunc:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVecFunc:
		return "gauge"
	default:
		return "summary"
	}
}

type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
	cvec    *CounterVec
	vecFn   func() map[string]float64
	label   string
}

// Registry holds named metrics and renders them as Prometheus text.
// Registration is lazy get-or-create: asking for an existing name of
// the same kind returns the existing instrument, so instrumentation
// sites do not need to coordinate. Registering an existing name as a
// different kind panics — that is a programming error, and silently
// splitting a name across kinds would corrupt the exposition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// lookup returns the metric registered under name, creating it with
// mk if absent. The kind must match an existing registration.
func (r *Registry) lookup(name string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic("metrics: " + name + " registered as both " + m.kind.String() + " and " + kind.String())
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, kindCounter, func() *metric {
		return &metric{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge registered under name, creating it if
// needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, kindGauge, func() *metric {
		return &metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the instrumented code pays nothing per operation. Re-register
// under the same name replaces the function (the latest closure wins,
// so a rebuilt component re-pointing its gauges is harmless).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.lookup(name, kindGaugeFunc, func() *metric {
		return &metric{name: name, help: help, kind: kindGaugeFunc}
	})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// CounterVec returns the one-label counter family registered under
// name, creating it if needed. All registrations of a name must use
// the same label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := r.lookup(name, kindCounterVec, func() *metric {
		return &metric{name: name, help: help, kind: kindCounterVec, label: label, cvec: &CounterVec{m: map[string]*Counter{}}}
	})
	if m.label != label {
		panic("metrics: " + name + " registered with labels " + m.label + " and " + label)
	}
	return m.cvec
}

// GaugeVecFunc registers a one-label gauge family computed by fn at
// scrape time: fn returns label value -> gauge value. Like GaugeFunc,
// re-registering replaces the callback.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.vecFunc(kindGaugeVecFunc, name, help, label, fn)
}

// CounterVecFunc is GaugeVecFunc for a family typed counter: fn reads
// monotonic counts another package keeps (the instrumented code pays
// nothing here), and every label value it returns is a row from the
// first scrape on.
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]float64) {
	r.vecFunc(kindCounterVecFunc, name, help, label, fn)
}

func (r *Registry) vecFunc(kind metricKind, name, help, label string, fn func() map[string]float64) {
	m := r.lookup(name, kind, func() *metric {
		return &metric{name: name, help: help, kind: kind, label: label}
	})
	if m.label != label {
		panic("metrics: " + name + " registered with labels " + m.label + " and " + label)
	}
	r.mu.Lock()
	m.vecFn = fn
	r.mu.Unlock()
}

// Histogram returns the latency histogram registered under name,
// creating it if needed. It renders as a Prometheus summary
// (quantiles + _sum + _count) in microseconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.lookup(name, kindHistogram, func() *metric {
		return &metric{name: name, help: help, kind: kindHistogram, hist: &Histogram{}}
	}).hist
}

// summaryQuantiles are the quantile series every histogram exports.
var summaryQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// AppendPrometheus renders every registered metric in Prometheus text
// exposition format, sorted by name for a stable scrape. Values are
// read with atomic loads — scraping concurrent updates is safe, each
// sample is merely from "around now" rather than one instant.
func (r *Registry) AppendPrometheus(dst []byte) []byte {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	for _, m := range ms {
		dst = append(dst, "# HELP "...)
		dst = append(dst, m.name...)
		dst = append(dst, ' ')
		dst = append(dst, m.help...)
		dst = append(dst, "\n# TYPE "...)
		dst = append(dst, m.name...)
		dst = append(dst, ' ')
		dst = append(dst, m.kind.String()...)
		dst = append(dst, '\n')
		switch m.kind {
		case kindCounter:
			dst = append(dst, m.name...)
			dst = append(dst, ' ')
			dst = strconv.AppendUint(dst, m.counter.Value(), 10)
			dst = append(dst, '\n')
		case kindGauge:
			dst = append(dst, m.name...)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, m.gauge.Value(), 10)
			dst = append(dst, '\n')
		case kindGaugeFunc:
			r.mu.Lock()
			fn := m.fn
			r.mu.Unlock()
			var v float64
			if fn != nil {
				v = fn()
			}
			// The exposition format forbids NaN for anything a gate
			// might read; a broken callback renders as 0, not NaN.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			dst = append(dst, m.name...)
			dst = append(dst, ' ')
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
			dst = append(dst, '\n')
		case kindCounterVec:
			keys, vals := m.cvec.snapshot()
			for _, k := range keys {
				dst = appendLabeled(dst, m.name, m.label, k)
				dst = strconv.AppendUint(dst, vals[k].Value(), 10)
				dst = append(dst, '\n')
			}
		case kindGaugeVecFunc, kindCounterVecFunc:
			r.mu.Lock()
			fn := m.vecFn
			r.mu.Unlock()
			if fn == nil {
				break
			}
			vals := fn()
			keys := make([]string, 0, len(vals))
			for k := range vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v := vals[k]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				dst = appendLabeled(dst, m.name, m.label, k)
				dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
				dst = append(dst, '\n')
			}
		case kindHistogram:
			count, sum := m.hist.Count(), m.hist.SumUS()
			for _, sq := range summaryQuantiles {
				dst = append(dst, m.name...)
				dst = append(dst, `{quantile="`...)
				dst = append(dst, sq.label...)
				dst = append(dst, `"} `...)
				dst = strconv.AppendUint(dst, m.hist.Quantile(sq.q), 10)
				dst = append(dst, '\n')
			}
			dst = append(dst, m.name...)
			dst = append(dst, "_sum "...)
			dst = strconv.AppendUint(dst, sum, 10)
			dst = append(dst, '\n')
			dst = append(dst, m.name...)
			dst = append(dst, "_count "...)
			dst = strconv.AppendUint(dst, count, 10)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// appendLabeled writes `name{label="value"} ` with the label value
// escaped per the exposition format (backslash, quote, newline).
func appendLabeled(dst []byte, name, label, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, '{')
	dst = append(dst, label...)
	dst = append(dst, `="`...)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = append(dst, c)
		}
	}
	dst = append(dst, `"} `...)
	return dst
}

// Handler returns a transport handler serving the registry as
// Prometheus text (the `/metrics` endpoint).
func (r *Registry) Handler() transport.Handler {
	return transport.HandlerFunc(func(context.Context, *transport.Request) *transport.Response {
		resp := transport.OK(r.AppendPrometheus(nil))
		resp.SetHeader("content-type", "text/plain; version=0.0.4; charset=utf-8")
		return resp
	})
}
