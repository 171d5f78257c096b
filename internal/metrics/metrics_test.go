package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Lazy registration from every goroutine must converge on
			// one instrument per name.
			c := r.Counter("pdagent_test_total", "test counter")
			g := r.Gauge("pdagent_test_gauge", "test gauge")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("pdagent_test_total", "").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("pdagent_test_gauge", "").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for us := uint64(1); us <= 10000; us++ {
		h.RecordUS(us)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.MaxUS() != 10000 {
		t.Fatalf("max = %d", h.MaxUS())
	}
	// The log-linear geometry bounds relative error to 1/2^histSubBits.
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := q * 10000
		if err := math.Abs(got-want) / want; err > 0.04 {
			t.Errorf("q%.3f = %.0f, want ~%.0f (err %.3f)", q, got, want, err)
		}
	}
	if h.Quantile(1) != 10000 {
		t.Errorf("q1 = %d, want max 10000", h.Quantile(1))
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.MeanUS() != 0 {
		t.Errorf("empty histogram quantile/mean not 0")
	}
}

// TestHistogramExactBelowSubRange: values under 32µs land in exact
// 1µs buckets.
func TestHistogramExactBelowSubRange(t *testing.T) {
	var h Histogram
	for us := uint64(0); us < 32; us++ {
		h.RecordUS(us)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %d, want 0", q)
	}
	if q := h.Quantile(0.5); q != 15 {
		t.Fatalf("q0.5 = %d, want 15", q)
	}
	if q := h.Quantile(1); q != 31 {
		t.Fatalf("q1 = %d, want 31", q)
	}
	if m := h.MeanUS(); m != 15.5 {
		t.Fatalf("mean = %v, want 15.5", m)
	}
}

// TestHistogramRelativeError: any value is reproduced by its bucket
// midpoint within the advertised 1/32 relative error, exactly below 32.
func TestHistogramRelativeError(t *testing.T) {
	for us := uint64(0); us < 10*60*1_000_000; us = us*17/16 + 1 {
		mid := bucketMid(bucketOf(us))
		if us < 32 {
			if mid != us {
				t.Fatalf("small value %dµs not exact (mid %dµs)", us, mid)
			}
			continue
		}
		if rel := math.Abs(float64(mid)-float64(us)) / float64(us); rel > 1.0/32 {
			t.Fatalf("value %dµs -> bucket %d mid %dµs, rel err %.4f", us, bucketOf(us), mid, rel)
		}
	}
}

// TestHistogramMonotoneBuckets: bucket indexes are monotone in the
// value, so quantile rank walks are order-correct.
func TestHistogramMonotoneBuckets(t *testing.T) {
	prev := -1
	for us := uint64(0); us < 1<<20; us += 97 {
		b := bucketOf(us)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", us, b, prev)
		}
		prev = b
	}
	if b := bucketOf(math.MaxUint64); b != histBuckets-1 {
		t.Fatalf("bucketOf(max) = %d, want the last bucket %d", b, histBuckets-1)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.Observe(1500 * time.Microsecond)
	h.Observe(-time.Second) // clamps to 0
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.SumUS() != 1500 {
		t.Fatalf("sum = %d", h.SumUS())
	}
}

func TestScrapeDuringUpdate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pdagent_test_us", "test latency")
	c := r.Counter("pdagent_scrape_total", "test")
	r.GaugeFunc("pdagent_live", "live view", func() float64 { return float64(c.Value()) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.RecordUS(seed*1000 + i%5000)
				c.Inc()
			}
		}(uint64(w))
	}
	for i := 0; i < 50; i++ {
		out := string(r.AppendPrometheus(nil))
		if strings.Contains(out, "NaN") {
			t.Fatalf("scrape contains NaN:\n%s", out)
		}
	}
	close(stop)
	wg.Wait()
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdagent_b_total", "b counter").Add(3)
	r.Gauge("pdagent_a_gauge", "a gauge").Set(-7)
	r.GaugeFunc("pdagent_c", "c func", func() float64 { return math.NaN() })
	h := r.Histogram("pdagent_d_us", "d latency")
	h.RecordUS(10)
	h.RecordUS(20)
	out := string(r.AppendPrometheus(nil))

	for _, want := range []string{
		"# TYPE pdagent_a_gauge gauge\npdagent_a_gauge -7\n",
		"# TYPE pdagent_b_total counter\npdagent_b_total 3\n",
		"# TYPE pdagent_c gauge\npdagent_c 0\n", // NaN renders as 0
		"# TYPE pdagent_d_us summary\n",
		"pdagent_d_us_sum 30\n",
		"pdagent_d_us_count 2\n",
		`pdagent_d_us{quantile="0.99"} 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Sorted by name, each name typed exactly once.
	ia := strings.Index(out, "# TYPE pdagent_a_gauge")
	ib := strings.Index(out, "# TYPE pdagent_b_total")
	if ia > ib {
		t.Errorf("scrape not sorted by name")
	}
	if strings.Count(out, "# TYPE pdagent_b_total") != 1 {
		t.Errorf("duplicate TYPE lines")
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("pdagent_tenant_dispatch_total", "per-tenant dispatches", "tenant")
	vec.With("default").Add(5)
	vec.With("acme").Inc()
	// Re-registration returns the same family; handles stay live.
	if r.CounterVec("pdagent_tenant_dispatch_total", "per-tenant dispatches", "tenant").With("acme") != vec.With("acme") {
		t.Fatal("re-registration built a new family")
	}
	r.GaugeVecFunc("pdagent_tenant_inflight", "per-tenant in-flight", "tenant", func() map[string]float64 {
		return map[string]float64{"acme": 2, "esc\"ape\\me": math.NaN()}
	})
	r.CounterVecFunc("pdagent_unseal_total", "unseals by path", "path", func() map[string]float64 {
		return map[string]float64{"full": 3, "resumed": 0}
	})
	out := string(r.AppendPrometheus(nil))

	for _, want := range []string{
		"# TYPE pdagent_unseal_total counter\n",
		"pdagent_unseal_total{path=\"full\"} 3\n",
		"pdagent_unseal_total{path=\"resumed\"} 0\n",
		"# TYPE pdagent_tenant_dispatch_total counter\n",
		"pdagent_tenant_dispatch_total{tenant=\"acme\"} 1\n",
		"pdagent_tenant_dispatch_total{tenant=\"default\"} 5\n",
		"# TYPE pdagent_tenant_inflight gauge\n",
		"pdagent_tenant_inflight{tenant=\"acme\"} 2\n",
		`pdagent_tenant_inflight{tenant="esc\"ape\\me"} 0` + "\n", // NaN renders 0, value escaped
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE per family, label rows sorted under it.
	if strings.Count(out, "# TYPE pdagent_tenant_dispatch_total") != 1 {
		t.Errorf("duplicate TYPE lines for labeled family:\n%s", out)
	}
	if strings.Index(out, `{tenant="acme"} 1`) > strings.Index(out, `{tenant="default"} 5`) {
		t.Errorf("label rows not sorted:\n%s", out)
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("pdagent_vec_total", "vec", "tenant")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := vec.With("t" + strconv.Itoa(w%2))
			for i := 0; i < 1000; i++ {
				h.Inc()
				vec.With("t2").Inc()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		_ = r.AppendPrometheus(nil)
	}
	wg.Wait()
	if got := vec.With("t2").Value(); got != 8000 {
		t.Fatalf("t2 = %d, want 8000", got)
	}
	if got := vec.With("t0").Value() + vec.With("t1").Value(); got != 8000 {
		t.Fatalf("t0+t1 = %d, want 8000", got)
	}
}

func TestVecLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("pdagent_y", "y", "tenant")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a vec with a different label did not panic")
		}
	}()
	r.CounterVec("pdagent_y", "y", "member")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdagent_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("pdagent_x", "x")
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing("gw-0", 4)
	ring.Record("ag-1", "dispatch", "echo")
	ring.Record("ag-2", "dispatch", "echo")
	ring.Record("ag-1", "admit", "echo")
	got := ring.Spans("ag-1")
	if len(got) != 2 || got[0].Op != "dispatch" || got[1].Op != "admit" {
		t.Fatalf("spans = %+v", got)
	}
	if got[0].Member != "gw-0" {
		t.Fatalf("member = %q", got[0].Member)
	}
	// Wrap: 4-capacity ring drops the oldest spans.
	for i := 0; i < 6; i++ {
		ring.Record("ag-3", "hop", "")
	}
	if n := len(ring.Spans("ag-3")); n != 4 {
		t.Fatalf("after wrap: %d spans, want 4", n)
	}
	if ring.Spans("ag-1") != nil {
		t.Fatalf("wrapped-out trace still visible")
	}
	if ring.Total() != 9 || ring.Dropped() != 5 {
		t.Fatalf("total=%d dropped=%d", ring.Total(), ring.Dropped())
	}
	// Wrapped rings keep spans oldest-first.
	sp := ring.Spans("ag-3")
	for i := 1; i < len(sp); i++ {
		if sp[i].Seq <= sp[i-1].Seq {
			t.Fatalf("spans out of order: %+v", sp)
		}
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	ring := NewTraceRing("gw-0", 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("ag-%d", w)
			for i := 0; i < 200; i++ {
				ring.Record(id, "hop", "")
				ring.Spans(id)
			}
		}(w)
	}
	wg.Wait()
	if ring.Total() != 800 {
		t.Fatalf("total = %d", ring.Total())
	}
}

func TestLoggerLevelsAndOnce(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	sink := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	root := NewLogger("gateway", sink)
	for i := 0; i < 3; i++ {
		root.Oncef("wedged", "store wedged: %d", i)
	}
	if len(lines) != 1 || lines[0] != "[gateway] warn: store wedged: 0" {
		t.Fatalf("Oncef lines = %q, want one %q", lines, "[gateway] warn: store wedged: 0")
	}
	if !root.ResetOnce("wedged") {
		t.Fatalf("ResetOnce reported unfired")
	}
	if root.ResetOnce("wedged") {
		t.Fatalf("ResetOnce reported an already re-armed key as fired")
	}
	root.Oncef("wedged", "store wedged again")
	if len(lines) != 2 {
		t.Fatalf("Oncef after reset did not fire: %q", lines)
	}

	// nil logger is silent, not a crash.
	var nilLog *Logger
	nilLog.Oncef("k", "no-op")
	if nilLog.ResetOnce("k") {
		t.Fatalf("nil logger reported a fired key")
	}
}

func TestLoggerOnceConcurrent(t *testing.T) {
	var count int
	var mu sync.Mutex
	l := NewLogger("x", func(string, ...any) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Oncef("key", "once")
			}
		}()
	}
	wg.Wait()
	if count != 1 {
		t.Fatalf("Oncef fired %d times", count)
	}
}
