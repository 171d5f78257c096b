package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// The reference server is the benchmark binary started again with
// -ref-serve; under `go test` that binary is the test binary, so it
// answers to the same arguments.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "-ref-serve" && os.Args[3] == "-ref-dir" {
		fmt.Fprintln(os.Stderr, refServe(os.Args[2], os.Args[4]))
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// testPaths points the benchmark's scratch directories into the test's
// own temporary directory.
func testPaths(t *testing.T) *paths {
	t.Helper()
	dir := t.TempDir()
	return &paths{root: dir, binDir: dir, tmpDir: dir, outDir: dir}
}

// The smoke test runs every workload end to end against the in-process
// cluster — no daemons, a short key, a second of open-loop load, a
// handful of traced journeys and a few layer calls — and asserts that
// every metric BENCHMARK.json names is reported, finite, and that the
// correctness gate held. The numbers themselves mean nothing here.
func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts listeners and runs load")
	}
	for _, wl := range append(workloads[:len(workloads):len(workloads)], byHand...) {
		wl := &wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			p := testPaths(t)
			const keyBits = 1024

			t0 := time.Now()
			c, err := startInproc(p, newTracer(), keyBits, nil) // tracer off: decorators pass through
			if err != nil {
				t.Fatal(err)
			}
			defer c.stop()
			env := &clusterEnv{c: c, rt: deviceTransport()}
			if env.devices, err = newDevices(ctx, c, wl, env.rt); err != nil {
				t.Fatal(err)
			}
			setup := time.Since(t0).Seconds()
			if env.ref, err = startRef(ctx, p); err != nil {
				t.Fatal(err)
			}
			defer env.ref.stop()
			pings, err := pingRTT(ctx, env, 20)
			if err != nil {
				t.Fatal(err)
			}
			warm, window := 400*time.Millisecond, time.Second
			lr, err := runLoad(ctx, env, wl, genInputs(wl, c.banks, 1, journeysFor(wl, warm+window)), warm, window)
			if err != nil {
				t.Fatal(err)
			}
			res := newResult(lr)
			lr.endToEndMetrics(res, []float64{setup})
			lr.layerMetricsA(res, pings)
			c.stop()

			tp, err := tracedPassWith(ctx, p, wl, 1, 4, 5*time.Second, keyBits)
			if err != nil {
				t.Fatal(err)
			}
			tp.fill(res)
			if err := layerCalls(p, wl, tp.captured, res, 10); err != nil {
				t.Fatal(err)
			}

			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d violations=%q", res.Correct, res.Attempted, res.Failed, res.violations)
			}
			for _, specs := range [][]metricSpec{endToEnd, perLayer} {
				for _, s := range specs {
					mv, ok := res.Metrics[s.name]
					if !ok {
						t.Errorf("metric %s is not reported", s.name)
						continue
					}
					if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Unit != s.unit {
						t.Errorf("metric %s = %v %q, want a finite value in %q", s.name, mv.Value, mv.Unit, s.unit)
					}
				}
			}
			if len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics reported, the spec names %d", len(res.Metrics), len(endToEnd)+len(perLayer))
			}
			for _, name := range []string{"journey_ms_p50", "dispatch_ms_p50", "verified_share", "uplink_bytes_per_journey", "setup_s", "host.ref_ms_p50"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, res.Metrics[name].Value)
				}
			}

			// Each workload bypasses the layer it is meant to bypass.
			travels := wl.kind == kindEBank
			if got := res.Metrics["mas.transfers_per_journey"].Value; (got > 0) != travels {
				t.Errorf("mas.transfers_per_journey = %v on %s", got, wl.name)
			}
			if got := res.Metrics["atp.image_bytes"].Value; (got > 0) != travels {
				t.Errorf("atp.image_bytes = %v on %s", got, wl.name)
			}
			if got := res.Metrics["pisec.open_us"].Value; (got > 0) != wl.secure {
				t.Errorf("pisec.open_us = %v on %s (secure=%v)", got, wl.name, wl.secure)
			}
			if _, err := os.Stat(tp.tracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
