// Command benchmark is the repository's end-to-end performance
// benchmark: real handheld journeys — device → gateway → MAS hosts →
// mailbox → device — over real loopback sockets between the real
// cmd/gateway and cmd/masd processes, under open-loop load, with a
// per-layer budget from a separate traced pass. See README.md.
//
//	bash benchmark/run.sh --workload echo_sealed --seed 1 --seconds 30 --trace 0
//
// Traffic crosses the host's loopback interface, not a wireless link.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: echo_sealed, echo_plain, ebank_journey, or (not on the driver's list) reconnect_collect")
		seed         = flag.Int64("seed", 1, "seed for payloads, amounts and device order")
		seconds      = flag.Int("seconds", 30, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from the untraced multi-process run; 1: per-layer metrics (shorter multi-process run, traced in-process pass, layer calls)")
		tracedOnly   = flag.Bool("traced-only", false, "run only the traced in-process pass and print its budget table")
		suite        = flag.Int("suite", 0, "run every workload this many times (seeds seed..seed+n-1) and write the values to -out")
		out          = flag.String("out", "", "file the -suite values are written to")
		compare      = flag.Bool("compare", false, "compare two -suite files: benchmark -compare a.json b.json")
		refAddr      = flag.String("ref-serve", "", "internal: serve as the reference server on this address (see ref.go)")
		refDir       = flag.String("ref-dir", "", "internal: directory of the reference server's log")
	)
	flag.Parse()

	if *refAddr != "" {
		fmt.Fprintln(os.Stderr, "benchmark: reference server:", refServe(*refAddr, *refDir))
		return 1
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	// Every exit path below runs the deferred cluster teardown; a signal
	// cancels the context and unwinds through the same path.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	p, err := newPaths()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := p.buildDaemons(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	if *suite > 0 {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "benchmark: -suite needs -out")
			return 2
		}
		return runSuite(ctx, p, *suite, *seed, window, *out)
	}

	wl := findWorkload(*workloadName)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	var res *result
	switch {
	case *tracedOnly:
		res, err = runTracedOnly(ctx, p, wl, *seed, window)
	case *trace == 1:
		res, err = runLayers(ctx, p, wl, *seed, window)
	default:
		res, err = runEndToEnd(ctx, p, wl, *seed, window)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "benchmark: interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return emit(wl, *seed, res)
}

// emit prints the report and, as the last line of standard output, the
// result object. A correctness violation makes the exit status non-zero.
func emit(wl *workload, seed int64, res *result) int {
	fmt.Printf("# workload %s seed %d — %s\n", wl.name, seed, wl.why)
	fmt.Printf("# loopback: true (traffic crosses the host loopback, not a wireless link); nproc %d; %s; %d generator goroutine(s)/connection(s), and one more to the reference server\n",
		runtime.NumCPU(), runtime.Version(), generators())
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, v := range res.violations {
		fmt.Println("VIOLATION:", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// newResult starts a result from a load run's counts and violations.
func newResult(lr *loadRun) *result {
	attempted, verified := lr.counts()
	return &result{
		Correct:    len(lr.violations) == 0,
		Attempted:  attempted,
		Failed:     attempted - verified,
		Metrics:    map[string]metricValue{},
		violations: lr.violations,
	}
}

// setUp starts the daemons and subscribes the device pool, and reports
// how long that took (go build excluded).
func setUp(ctx context.Context, p *paths, wl *workload) (*clusterEnv, float64, error) {
	t0 := time.Now()
	c, err := startDaemons(ctx, p)
	if err != nil {
		return nil, 0, err
	}
	env := &clusterEnv{c: c, rt: deviceTransport()}
	if env.devices, err = newDevices(ctx, c, wl, env.rt); err != nil {
		c.keepLogs(p)
		c.stop()
		return nil, 0, fmt.Errorf("subscribing devices: %w", err)
	}
	return env, time.Since(t0).Seconds(), nil
}

// loadAgainstRef drives the open loop against env's cluster and the
// reference server beside it.
func loadAgainstRef(ctx context.Context, p *paths, env *clusterEnv, wl *workload, seed int64, warm, window time.Duration) (*loadRun, error) {
	inputs := genInputs(wl, env.c.banks, seed, journeysFor(wl, warm+window))
	lr, err := runLoad(ctx, env, wl, inputs, warm, window)
	if err != nil && ctx.Err() == nil { // an interrupt is not a failure worth keeping logs for
		env.c.keepLogs(p)
	}
	return lr, err
}

// runEndToEnd is `--trace 0`: a set-up, one untraced open-loop run
// against it, then the rest of the timed set-ups (setup_s is the median
// of setupRounds of them, because RSA key generation time is random). The
// load run comes first so that it starts on a machine that has been idle,
// not on one still writing back thirty discarded clusters' logs, and so
// that the set-ups can be held against the reference reading it takes.
func runEndToEnd(ctx context.Context, p *paths, wl *workload, seed int64, window time.Duration) (*result, error) {
	r, err := startRef(ctx, p)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	env, secs, err := setUp(ctx, p, wl)
	if err != nil {
		return nil, err
	}
	defer env.c.stop()
	env.ref = r
	lr, err := loadAgainstRef(ctx, p, env, wl, seed, warmup, window)
	if err != nil {
		return nil, err
	}
	res := newResult(lr)
	if !res.Correct {
		env.c.keepLogs(p)
	}
	env.c.stop()
	r.stop()

	setups := []float64{secs}
	for len(setups) < setupRounds {
		e, secs, err := setUp(ctx, p, wl)
		if err != nil {
			return nil, err
		}
		e.c.stop()
		setups = append(setups, secs)
	}
	lr.endToEndMetrics(res, setups)
	return res, nil
}

// runLayers is `--trace 1`: the measured time is split between a
// shorter multi-process run (source A), the traced in-process pass
// (source B) and timed layer calls on captured bytes (source C).
func runLayers(ctx context.Context, p *paths, wl *workload, seed int64, window time.Duration) (*result, error) {
	r, err := startRef(ctx, p)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	env, _, err := setUp(ctx, p, wl)
	if err != nil {
		return nil, err
	}
	defer env.c.stop()
	env.ref = r
	pings, err := pingRTT(ctx, env, 500)
	if err != nil {
		return nil, err
	}
	lr, err := loadAgainstRef(ctx, p, env, wl, seed, warmup/2, window/2)
	if err != nil {
		return nil, err
	}
	res := newResult(lr)
	lr.layerMetricsA(res, pings)
	if !res.Correct {
		env.c.keepLogs(p)
	}
	env.c.stop() // free the cores before the sequential pass
	r.stop()

	tp, err := runTracedPass(ctx, p, wl, seed, tracedJourneys, window/4)
	if err != nil {
		return nil, err
	}
	tp.fill(res)
	if err := layerCalls(p, wl, tp.captured, res, 1000); err != nil {
		return nil, err
	}
	return res, nil
}

// runTracedOnly runs just the traced pass (and the layer calls on what
// it captured), for reading a budget table without the long run.
func runTracedOnly(ctx context.Context, p *paths, wl *workload, seed int64, window time.Duration) (*result, error) {
	tp, err := runTracedPass(ctx, p, wl, seed, tracedJourneys, window)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	tp.fill(res)
	if err := layerCalls(p, wl, tp.captured, res, 1000); err != nil {
		return nil, err
	}
	return res, nil
}
