package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"pdagent/internal/device"
	"pdagent/internal/transport"
)

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark invocation reports. The exported fields
// are the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	perSlice   map[string][]float64 // the per-slice (setup_s: per-set-up) values behind the reported ones
	violations []string             // correctness violations (wrong/duplicate results, dirty quiescence)
	report     []string             // human-readable lines printed before the JSON
}

func (r *result) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metricValue{Value: v, Unit: s.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the spec")
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// loadRun is the raw outcome of one open-loop run.
type loadRun struct {
	wl         *workload
	measured   []journeyRec // journeys due inside the measured window
	seconds    float64      // length of the measured window
	before     *snapshot    // at the start of the window
	after      *snapshot    // at its end
	sliceTicks [][]float64  // per slice boundary (slices+1 of them), per member: CPU ticks so far
	refSamples []refSample  // the reference transactions sent during the run
	warm       time.Duration
	gatewayRSS float64 // MB, peak
	late       int     // results collected only by the post-run drain
	violations []string
}

// clusterEnv is a started cluster with its subscribed device pool and
// the reference server a load run is measured against.
type clusterEnv struct {
	c       *cluster
	devices []*device.Platform
	rt      transport.RoundTripper // the devices' round-tripper (counting decorator over the pooled client)
	ref     *ref                   // the caller's: started before the load run, stopped by whoever started it
}

// deviceTransport builds the device side of the uplink: the real pooled
// HTTP client capped at the generator count, under the byte counter.
func deviceTransport() transport.RoundTripper {
	return countingRT{inner: transport.NewPooledHTTPClient(generators())}
}

// journeysFor is how many journeys an open-loop run of the given length
// schedules.
func journeysFor(wl *workload, d time.Duration) int {
	return int(math.Ceil(d.Seconds() * wl.rate))
}

// runLoad drives the open loop for warm + window against env and
// gathers the window's records and cluster snapshots.
func runLoad(ctx context.Context, env *clusterEnv, wl *workload, inputs []input, warm, window time.Duration) (*loadRun, error) {
	r := &runner{
		wl: wl, c: env.c, devices: env.devices, inputs: inputs,
		recs:    make([]journeyRec, len(inputs)),
		cycles:  make([]*reconnectCycle, len(inputs)),
		seen:    map[string]bool{},
		offline: reconnectOffline,
	}
	lr := &loadRun{wl: wl, seconds: window.Seconds(), warm: warm}
	loopDone := make(chan struct{})
	r.start = time.Now()
	go func() {
		defer close(loopDone)
		r.runTasks(ctx, r.schedule(), generators())
	}()
	// The generators have stopped before runLoad returns, on any path.
	defer func() { <-loopDone }()
	stopProbe := env.ref.probeInBackground(ctx, r.start)
	defer stopProbe()

	var err error
	sleepUntil(ctx, r.start.Add(warm))
	if lr.before, err = env.c.snapshot(ctx); err != nil {
		return nil, err
	}
	lr.sliceTicks = append(lr.sliceTicks, lr.before.cpuTicks)
	for i := 1; i <= slices; i++ {
		sleepUntil(ctx, r.start.Add(warm+window*time.Duration(i)/slices))
		if i == slices {
			break // the closing snapshot reads the CPU itself
		}
		ticks, err := env.c.cpuTicks()
		if err != nil {
			return nil, err
		}
		lr.sliceTicks = append(lr.sliceTicks, ticks)
	}
	if lr.after, err = env.c.snapshot(ctx); err != nil {
		return nil, err
	}
	lr.sliceTicks = append(lr.sliceTicks, lr.after.cpuTicks)
	if lr.refSamples, err = stopProbe(); err != nil {
		return nil, err
	}
	<-loopDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := env.c.checkAlive(); err != nil {
		return nil, err
	}

	for _, rec := range r.recs {
		if rec.due >= warm && rec.due < warm+window {
			lr.measured = append(lr.measured, rec)
			if rec.wrong {
				lr.violations = append(lr.violations, rec.failure)
			}
		}
	}
	if lr.late, err = r.drain(ctx); err != nil {
		lr.violations = append(lr.violations, err.Error())
	}
	if v, err := env.c.quiesce(ctx); err != nil {
		return nil, err
	} else if v != "" {
		lr.violations = append(lr.violations, v)
	}
	if len(env.c.procs) > 0 {
		if lr.gatewayRSS, err = procPeakRSSMB(env.c.procs[0].cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-time.After(time.Until(t)):
	case <-ctx.Done():
	}
}

// quiesce waits for the cluster to come to rest after a run — no
// resident agents, no undelivered mail — and checks the gateway never
// answered a dispatch with an error. It returns a description of what
// is still wrong after the grace period ("" when clean). Parked
// transfers resume on masd's 200 ms retry tick, so a few ticks of
// grace are enough for an honest straggler.
func (c *cluster) quiesce(ctx context.Context) (string, error) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		s, err := c.snapshot(ctx)
		if err != nil {
			return "", err
		}
		residents := s.sum("pdagent_residents", allMembers...)
		pending := s.sum("pdagent_mailbox_pending", 0)
		errs := s.sum("pdagent_dispatch_errors_total", 0)
		if residents == 0 && pending == 0 && errs == 0 {
			return "", nil
		}
		if time.Now().After(deadline) || errs != 0 {
			return fmt.Sprintf("at quiescence pdagent_residents=%g pdagent_mailbox_pending=%g pdagent_dispatch_errors_total=%g (want 0 0 0)",
				residents, pending, errs), nil
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// --- metric computation ------------------------------------------------------

// counts splits the measured journeys.
func (lr *loadRun) counts() (attempted, verified int) {
	for _, rec := range lr.measured {
		if rec.failure == "" {
			verified++
		}
	}
	return len(lr.measured), verified
}

// latencies returns the latencies of the given journeys. A failed
// journey is charged the full deadline: it missed every limit, and
// dropping it would make a run with failures look faster.
func latencies(recs []journeyRec) (journey, dispatch []float64) {
	deadlineMs := float64(journeyDeadline) / float64(time.Millisecond)
	for _, rec := range recs {
		if rec.failure != "" {
			journey, dispatch = append(journey, deadlineMs), append(dispatch, deadlineMs)
			continue
		}
		journey, dispatch = append(journey, rec.journeyMs), append(dispatch, rec.dispatchMs)
	}
	return journey, dispatch
}

// sliceOf is the slice of the window a due time falls in, or -1 when it
// falls outside the window.
func (lr *loadRun) sliceOf(due time.Duration) int {
	span := time.Duration(lr.seconds * float64(time.Second))
	if due < lr.warm || due >= lr.warm+span {
		return -1
	}
	return int((due - lr.warm) * slices / span)
}

// bySlice splits the measured journeys by the slice of the window their
// due time falls in.
func (lr *loadRun) bySlice() [][]journeyRec {
	out := make([][]journeyRec, slices)
	for _, rec := range lr.measured {
		i := lr.sliceOf(rec.due)
		out[i] = append(out[i], rec)
	}
	return out
}

// refReading is what the reference server cost in one slice of the
// window: its transactions' latency from due time, and its CPU time per
// transaction (whatever its clock advanced between one answer and the
// next is charged to the later transaction).
type refReading struct {
	n           int
	ms50, cpuMs float64
}

func (lr *loadRun) refBySlice() []refReading {
	latencies := make([][]float64, slices)
	cpuNs := make([]int64, slices)
	for k, s := range lr.refSamples {
		if i := lr.sliceOf(s.due); i >= 0 && k > 0 {
			latencies[i] = append(latencies[i], s.ms)
			cpuNs[i] += s.cpuNs - lr.refSamples[k-1].cpuNs
		}
	}
	out := make([]refReading, slices)
	for i, l := range latencies {
		out[i].n = len(l)
		out[i].ms50, _ = percentile(l, 50)
		out[i].cpuMs = perOr0(float64(cpuNs[i])/1e6, float64(len(l)))
	}
	return out
}

// sliceMetric is a metric measured slice by slice and held against the
// reference server: which of its readings, and that reading's nominal
// value (what it reads on the machine the first numbers were recorded
// on, on a quiet day — it only sets the scale).
type sliceMetric struct {
	name    string
	ref     string // key of the reference reading in the per-slice values
	nominal float64
}

var sliceMetrics = []sliceMetric{
	{"journey_ms_p50", "ref.ms_p50", refNominalMs},
	{"dispatch_ms_p50", "ref.ms_p50", refNominalMs},
	{"cpu_ms_per_journey", "ref.cpu_ms", refNominalCPUMs},
}

// sliceValues computes, for every slice of the window, the latency
// percentiles and the CPU cost per verified journey as measured
// ("raw." + name), the reference server's readings ("ref."...), and
// each metric against the reference (under its own name):
//
//	measured × nominal reference reading / reference reading in this slice
//
// Latencies are held against the reference transactions' median latency,
// CPU time against the reference's CPU time. goodput_per_s is the rate of
// verified journeys whose latency, held against the reference the same
// way, is within the workload's limit. The p90s are kept as measured,
// for the report only: see README.md for why no tail is an end-to-end
// metric.
func (lr *loadRun) sliceValues() map[string][]float64 {
	out := map[string][]float64{}
	refs := lr.refBySlice()
	for i, recs := range lr.bySlice() {
		verified := 0
		for _, rec := range recs {
			if rec.failure == "" {
				verified++
			}
		}
		if verified == 0 || refs[i].n == 0 {
			continue
		}
		journey, dispatch := latencies(recs)
		for _, m := range []struct {
			name    string
			samples []float64
			p       float64
		}{
			{"raw.journey_ms_p50", journey, 50}, {"raw.journey_ms_p90", journey, 90},
			{"raw.dispatch_ms_p50", dispatch, 50}, {"raw.dispatch_ms_p90", dispatch, 90},
		} {
			v, _ := percentile(m.samples, m.p)
			out[m.name] = append(out[m.name], v)
		}
		ticks := 0.0
		for m := range lr.sliceTicks[i] {
			ticks += lr.sliceTicks[i+1][m] - lr.sliceTicks[i][m]
		}
		out["raw.cpu_ms_per_journey"] = append(out["raw.cpu_ms_per_journey"], ticks*1000/clockTick/float64(verified))
		out["ref.ms_p50"] = append(out["ref.ms_p50"], refs[i].ms50)
		out["ref.cpu_ms"] = append(out["ref.cpu_ms"], refs[i].cpuMs)
		good := 0
		for _, rec := range recs {
			if rec.failure == "" && rec.journeyMs*refNominalMs <= lr.wl.limitMs*refs[i].ms50 {
				good++
			}
		}
		out["goodput_per_s"] = append(out["goodput_per_s"], float64(good)*slices/lr.seconds)
	}
	for _, m := range sliceMetrics {
		for i, raw := range out["raw."+m.name] {
			out[m.name] = append(out[m.name], perOr0(raw*m.nominal, out[m.ref][i]))
		}
	}
	return out
}

// typicalSlice reduces a metric's per-slice values to the one reported.
// A stalled fsync or a neighbour's burst lasts a second or two and would
// swing a whole-run tail percentile by a factor of two. It spoils one
// slice instead, and the median slice still moves with anything that
// lasts — which a code change does.
func typicalSlice(values []float64) float64 { return median(values) }

func perOr0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics fills res with the seven end-to-end metrics.
func (lr *loadRun) endToEndMetrics(res *result, setups []float64) {
	attempted, verified := lr.counts()
	good, bytes := 0, 0
	for _, rec := range lr.measured {
		if rec.failure == "" {
			bytes += rec.bytes
			if rec.journeyMs <= lr.wl.limitMs {
				good++
			}
		}
	}
	res.perSlice = lr.sliceValues()
	res.perSlice["setup_s"] = setups
	for _, m := range sliceMetrics {
		res.set(endToEnd, m.name, typicalSlice(res.perSlice[m.name]))
	}
	// A set-up is CPU work — process start-up and an RSA key search — so
	// it is held against the reference's CPU reading, the one this run
	// has just taken. That does nothing for the spread between runs,
	// which is the luck of thirty key searches (about 30 % whatever it
	// is divided by: readings taken during the set-ups and between them
	// were tried too), but it takes out the machine's pace, which
	// otherwise moves the medians of two sets of runs apart by up to half.
	refCPUMs := typicalSlice(res.perSlice["ref.cpu_ms"])
	res.set(endToEnd, "setup_s", perOr0(median(setups)*refNominalCPUMs, refCPUMs))
	res.set(endToEnd, "goodput_per_s", typicalSlice(res.perSlice["goodput_per_s"]))
	res.set(endToEnd, "verified_share", perOr0(float64(verified), float64(attempted)))
	res.set(endToEnd, "uplink_bytes_per_journey", perOr0(float64(bytes), float64(verified)))
	perSlice := len(lr.measured) / slices

	res.printf("open loop at %g journeys/s for %.0f s: %d attempted, %d verified, %d within the %g ms limit as measured, %d collected late",
		lr.wl.rate, lr.seconds, attempted, verified, good, lr.wl.limitMs, lr.late)
	res.printf("per slice: n=%d journeys (n=%d in all); reported value (against the reference server), then each slice; then as measured:", perSlice, attempted)
	for _, m := range sliceMetrics {
		res.printf("  %-20s %8.3f   %.3f   as measured %8.3f   %.3f", m.name, res.Metrics[m.name].Value, res.perSlice[m.name],
			typicalSlice(res.perSlice["raw."+m.name]), res.perSlice["raw."+m.name])
	}
	res.printf("  %-20s %8.3f   %.3f", "goodput_per_s", res.Metrics["goodput_per_s"].Value, res.perSlice["goodput_per_s"])
	for _, name := range []string{"raw.journey_ms_p90", "raw.dispatch_ms_p90"} {
		res.printf("  %-20s %8s   %8s   as measured %8.3f   %.3f  (%d beyond it per slice; not an end-to-end metric)",
			name[len("raw."):], "", "", typicalSlice(res.perSlice[name]), res.perSlice[name], perSlice-rankOf(max(perSlice, 1), 90))
	}
	for _, r := range []struct {
		key     string
		nominal float64
	}{{"ref.ms_p50", refNominalMs}, {"ref.cpu_ms", refNominalCPUMs}} {
		res.printf("  %-20s %8.3f   %.3f   nominal %.3f  (reference server, %d transactions/s: what the same seconds cost a frozen server)",
			r.key, typicalSlice(res.perSlice[r.key]), res.perSlice[r.key], r.nominal, refRate)
	}
	res.printf("  %-20s %8.3f   median of %d set-ups against ref.cpu_ms   as measured %8.3f   %.3f",
		"setup_s", res.Metrics["setup_s"].Value, len(setups), median(setups), setups)
}

// layerMetricsA fills res with the layer metrics taken from outside the
// daemons during the untraced multi-process run (source A).
func (lr *loadRun) layerMetricsA(res *result, pingUs []float64) {
	attempted, verified := lr.counts()
	journey, dispatch := latencies(lr.measured)
	var lags, reqs []float64
	for _, rec := range lr.measured {
		lags = append(lags, rec.lagMs)
		if rec.failure == "" {
			reqs = append(reqs, float64(rec.requests))
		}
	}
	delta := func(name string, members ...int) float64 {
		return lr.after.sum(name, members...) - lr.before.sum(name, members...)
	}
	n, v := float64(attempted), float64(verified)
	lag95, _ := percentile(lags, 95)
	j90, _ := percentile(journey, 90)
	d90, _ := percentile(dispatch, 90)
	j95, beyond95 := percentile(journey, 95)
	j99, beyond99 := percentile(journey, 99)
	ping50, _ := percentile(pingUs, 50)
	tickMs := 1000.0 / clockTick

	res.set(perLayer, "device.requests_per_journey", mean(reqs))
	res.set(perLayer, "device.generator_lag_ms_p95", lag95)
	res.set(perLayer, "device.dispatch_ms_p90", d90)
	res.set(perLayer, "device.journey_ms_p90", j90)
	res.set(perLayer, "device.journey_ms_p95", j95)
	res.set(perLayer, "device.journey_ms_p99", j99)
	res.set(perLayer, "transport.ping_rtt_us_p50", ping50)
	refs := lr.sliceValues()
	res.set(perLayer, "host.ref_ms_p50", typicalSlice(refs["ref.ms_p50"]))
	res.set(perLayer, "host.ref_cpu_ms", typicalSlice(refs["ref.cpu_ms"]))
	res.set(perLayer, "gateway.cpu_ms_per_journey", perOr0((lr.after.cpuTicks[0]-lr.before.cpuTicks[0])*tickMs, v))
	res.set(perLayer, "gateway.rss_mb_peak", lr.gatewayRSS)
	res.set(perLayer, "gateway.dispatch_handler_us_mean",
		perOr0(delta("pdagent_dispatch_us_sum", 0), delta("pdagent_dispatch_us_count", 0)))
	masTicks := lr.after.cpuTicks[1] + lr.after.cpuTicks[2] - lr.before.cpuTicks[1] - lr.before.cpuTicks[2]
	res.set(perLayer, "mas.cpu_ms_per_journey", perOr0(masTicks*tickMs, v))
	res.set(perLayer, "mas.transfers_per_journey", perOr0(delta("pdagent_transfer_out_total", allMembers...), n))
	res.set(perLayer, "mas.transfer_us_mean",
		perOr0(delta("pdagent_transfer_us_sum", allMembers...), delta("pdagent_transfer_us_count", allMembers...)))
	res.set(perLayer, "mas.parked_per_kjourney", perOr0(1000*delta("pdagent_transfer_parked_total", allMembers...), n))
	fsyncs := delta("pdagent_wal_fsyncs", allMembers...) + delta("pdagent_mailbox_wal_fsyncs", 0)
	grouped := delta("pdagent_wal_grouped_ops", allMembers...) + delta("pdagent_mailbox_wal_grouped_ops", 0)
	res.set(perLayer, "rms.fsyncs_per_journey", perOr0(fsyncs, n))
	res.set(perLayer, "rms.ops_per_fsync", perOr0(grouped, fsyncs))
	maxFsync := math.Max(lr.after.max("pdagent_wal_max_fsync_us", allMembers...), lr.after.max("pdagent_mailbox_wal_max_fsync_us", 0))
	res.set(perLayer, "rms.max_fsync_ms", maxFsync/1000)

	res.printf("multi-process run (source A): %d attempted, %d verified in %.0f s; over the whole window dispatch_ms p90 %.3f, journey_ms p90 %.3f p95 %.3f (%d beyond) p99 %.3f (%d beyond) of n=%d; generator lag p95 %.3f ms; ping p50 %.1f us (n=%d)",
		attempted, verified, lr.seconds, d90, j90, j95, beyond95, j99, beyond99, len(journey), lag95, ping50, len(pingUs))
}

// pingRTT measures the floor under every request: /pdagent/ping over
// the devices' own pooled client, sequentially, on the idle cluster.
func pingRTT(ctx context.Context, env *clusterEnv, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := env.rt.RoundTrip(ctx, env.c.gateway, &transport.Request{Path: "/pdagent/ping"})
		if err != nil {
			return nil, err
		}
		if !resp.IsOK() {
			return nil, resp.Err()
		}
		out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return out, nil
}
