package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/transport"
)

// captures are the workload's own bytes, picked off the wire during the
// traced pass, that the layer calls (source C) are timed on.
type captures struct {
	mu        sync.Mutex
	keyPair   *pisec.KeyPair // the in-process gateway's key: opens the captured sealed bodies
	dispatch  [][]byte       // uploaded Packed Information bodies
	results   [][]byte       // result documents as delivered through the mailbox
	transfers [][]byte       // ATP transfer images (any flavour)
}

// medianSized returns the body of median length, so a layer call is
// timed on a typical input, not on the seed's first draw.
func medianSized(bodies [][]byte) []byte {
	if len(bodies) == 0 {
		return nil
	}
	sorted := append([][]byte(nil), bodies...)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	return sorted[len(sorted)/2]
}

func (c *captures) deviceSaw(req *transport.Request, resp *transport.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case req.Path == "/pdagent/dispatch":
		c.dispatch = append(c.dispatch, req.Body)
	case strings.HasPrefix(req.Path, "/pdagent/mailbox") && resp.IsOK():
		if _, entries, _, _, _, _, err := push.ParseEntries(resp.Body); err == nil {
			for _, e := range entries {
				if e.Kind == push.KindResult {
					c.results = append(c.results, e.Body)
				}
			}
		}
	}
}

func (c *captures) memberSaw(req *transport.Request, _ *transport.Response) {
	if req.Path == "/atp/transfer" {
		c.mu.Lock()
		c.transfers = append(c.transfers, req.Body)
		c.mu.Unlock()
	}
}

// tracedOffline is the offline gap of a reconnect cycle in the traced
// pass. The open-loop run keeps a device away for reconnectOffline; a
// sequential pass cannot afford that per cycle and does not need it:
// what the workload requires is that all four results have landed with
// no waiter parked, and an echo agent is home within a few milliseconds.
const tracedOffline = 25 * time.Millisecond

// tracedPass is the outcome of the sequential in-process pass.
type tracedPass struct {
	wl        *workload
	tracedMs  []float64 // journey times with the decorators recording
	plainMs   []float64 // journey times with the decorators passing through
	failed    int
	violation []string
	ids       []int64          // traced journey ids, ascending
	groups    map[int64][]span // resolved spans per traced journey
	budgets   []budget
	captured  *captures
	tracePath string
}

// runTracedPass runs up to n traced journeys, one in flight at a time,
// against the in-process cluster, alternating each with an untraced
// journey (so tracing overhead is the difference of two interleaved
// medians, not of two runs minutes apart), and stops early once box
// has elapsed.
func runTracedPass(ctx context.Context, p *paths, wl *workload, seed int64, n int, box time.Duration) (*tracedPass, error) {
	return tracedPassWith(ctx, p, wl, seed, n, box, pisec.DefaultKeyBits)
}

func tracedPassWith(ctx context.Context, p *paths, wl *workload, seed int64, n int, box time.Duration, keyBits int) (*tracedPass, error) {
	t := newTracer()
	caps := &captures{}
	c, err := startInproc(p, t, keyBits, caps.memberSaw)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	caps.keyPair = c.inproc.keyPair
	rt := tracedRT{t: t, component: "device", inner: transport.NewPooledHTTPClient(generators()), seen: caps.deviceSaw}
	devices, err := newDevices(ctx, c, wl, rt)
	if err != nil {
		return nil, fmt.Errorf("subscribing devices: %w", err)
	}

	const warm = 5
	total := warm + 2*n
	r := &runner{
		wl: wl, c: c, devices: devices,
		inputs:  genInputs(wl, c.banks, seed, total),
		recs:    make([]journeyRec, total),
		cycles:  make([]*reconnectCycle, total),
		seen:    map[string]bool{},
		offline: tracedOffline,
	}
	tp := &tracedPass{wl: wl, captured: caps}
	deadline := time.Now().Add(box)
	for k := 0; k < total && ctx.Err() == nil; k++ {
		traced := k >= warm && (k-warm)%2 == 0
		if k >= warm && !traced && time.Now().After(deadline) {
			break // only ever stop after a complete traced/untraced pair
		}
		ms := r.sequentialJourney(ctx, t, k, traced)
		rec := &r.recs[k]
		if rec.failure != "" {
			tp.failed++
			if rec.wrong {
				tp.violation = append(tp.violation, rec.failure)
			}
			continue
		}
		switch {
		case k < warm:
		case traced:
			tp.tracedMs = append(tp.tracedMs, ms)
		default:
			tp.plainMs = append(tp.plainMs, ms)
		}
		// Let the journey's asynchronous tail (journal clean-up, location
		// relays) finish before the next journey's spans begin.
		time.Sleep(time.Millisecond)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(tp.tracedMs) == 0 {
		return nil, fmt.Errorf("traced pass: no journey completed (%d failed)", tp.failed)
	}

	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	tp.ids, tp.groups = byJourney(spans)
	for _, id := range tp.ids {
		if b, ok := journeyBudget(tp.groups[id]); ok {
			tp.budgets = append(tp.budgets, b)
		}
	}
	tp.tracePath = filepath.Join(p.outDir, "trace-"+wl.name+".json")
	if err := tp.writeTrace(); err != nil {
		return nil, err
	}
	return tp, nil
}

// sequentialJourney runs journey k alone and returns its duration in
// milliseconds. When traced, every span it causes is recorded under id
// k and bracketed by a root span.
func (r *runner) sequentialJourney(ctx context.Context, t *tracer, k int, traced bool) float64 {
	t.journey.Store(int64(k))
	t.on.Store(traced)
	defer t.on.Store(false)
	bracket := func(name string, run func(context.Context, int, time.Time)) float64 {
		start, at := t.begin(), time.Now()
		run(ctx, k, at)
		ms := msSince(at)
		if traced {
			t.record(name, catDevice, start)
		}
		return ms
	}
	if r.wl.kind != kindReconnect {
		return bracket(journeyRootName, r.oneShot)
	}
	r.cycles[k] = &reconnectCycle{uploaded: make(chan struct{})}
	bracket("upload", r.upload)
	time.Sleep(r.offline) // outside the root span: the journey starts at the reconnect
	return bracket(journeyRootName, r.session)
}

// writeTrace writes every traced span, journey by journey, with parent
// indices into the written array.
func (tp *tracedPass) writeTrace() error {
	var all []span
	for _, id := range tp.ids {
		base := len(all)
		for _, s := range tp.groups[id] {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(tp.tracePath, data, 0o644)
}

// meanOver averages f over the traced journeys.
func (tp *tracedPass) meanOver(f func(spans []span) int64) float64 {
	var total int64
	for _, id := range tp.ids {
		total += f(tp.groups[id])
	}
	return float64(total) / float64(len(tp.ids))
}

// fill adds the traced pass's layer metrics (source B) and its budget
// table to res.
func (tp *tracedPass) fill(res *result) {
	res.Attempted += len(tp.tracedMs) + len(tp.plainMs) + tp.failed
	res.Failed += tp.failed
	if len(tp.violation) > 0 {
		res.Correct = false
		res.violations = append(res.violations, tp.violation...)
	}

	// us is the mean per journey, in microseconds, of the matching
	// spans' self time (or full duration).
	us := func(self bool, match func(*span) bool) float64 {
		return tp.meanOver(func(spans []span) int64 { return sumSpans(spans, self, match) }) / 1e3
	}
	inCat := func(cat category) func(*span) bool {
		return func(s *span) bool { return s.cat == cat }
	}
	named := func(name string) func(*span) bool {
		return func(s *span) bool { return s.Name == name }
	}
	masTransfer := func(s *span) bool {
		return s.cat == catMAS && strings.HasSuffix(s.Name, " /atp/transfer")
	}
	res.set(perLayer, "transport.requests_per_journey", tp.meanOver(func(spans []span) int64 {
		var n int64
		for i := range spans {
			if spans[i].cat == catRT {
				n++
			}
		}
		return n
	}))
	res.set(perLayer, "transport.stack_us_per_journey", us(true, inCat(catRT)))
	res.set(perLayer, "gateway.serve_self_us.dispatch", us(true, named("serve:gateway /pdagent/dispatch")))
	res.set(perLayer, "gateway.serve_self_us.mailbox", us(true, named("serve:gateway /pdagent/mailbox")))
	res.set(perLayer, "gateway.serve_self_us.transfer", us(true, named("serve:gateway /atp/transfer")))
	res.set(perLayer, "gateway.poll_park_us", us(true, inCat(catPollPark)))
	res.set(perLayer, "mas.serve_self_us.transfer", us(true, masTransfer))
	res.set(perLayer, "rms.journal_us_per_journey", us(false, inCat(catJournal)))
	res.set(perLayer, "rms.mailbox_us_per_journey", us(false, inCat(catMailbox)))

	traced50, plain50 := median(tp.tracedMs), median(tp.plainMs)
	res.set(perLayer, "trace.seq_journey_ms_p50", traced50)
	res.set(perLayer, "trace.overhead_pct", 100*perOr0(traced50-plain50, plain50))

	// The budget: mean per traced journey, by category.
	var total, summed int64
	var byCat [numCategories]int64
	for _, b := range tp.budgets {
		total += b.total
		summed += b.sum()
		for c, v := range b.self {
			byCat[c] += v
		}
	}
	nb := float64(len(tp.budgets))
	gap := 100 * perOr0(float64(summed-total), float64(total))
	if gap < 0 {
		gap = -gap
	}
	res.printf("traced pass (source B): sequential, in-process on loopback listeners; %d traced + %d untraced journeys, %d failed; spans in %s",
		len(tp.tracedMs), len(tp.plainMs), tp.failed, tp.tracePath)
	res.printf("sequential journey_ms p50: traced %.3f (n=%d), untraced %.3f (n=%d), overhead %.1f%%",
		traced50, len(tp.tracedMs), plain50, len(tp.plainMs), 100*perOr0(traced50-plain50, plain50))
	res.printf("budget per journey (mean of %d), self time by layer:", len(tp.budgets))
	for c, v := range byCat {
		res.printf("  %-52s %9.1f us  %5.1f%%", categoryNames[c], float64(v)/nb/1e3, 100*perOr0(float64(v), float64(total)))
	}
	verdict := "within 5%"
	if gap > 5 {
		verdict = "OUTSIDE 5%"
	}
	res.printf("  %-52s %9.1f us  vs journey %.1f us: gap %.2f%% (%s)", "sum", float64(summed)/nb/1e3, float64(total)/nb/1e3, gap, verdict)
}
