package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// suiteFile is a complete set of untraced runs: every workload, several
// seeds, every end-to-end value as measured. `-suite` writes one,
// `-compare` reads two.
type suiteFile struct {
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	Loopback bool    `json:"loopback"`
	Seconds  int     `json:"seconds"`
	Seeds    []int64 `json:"seeds"`
	// Runs is workload -> metric -> one value per seed.
	Runs map[string]map[string][]float64 `json:"runs"`
	// Slices is workload -> metric -> per seed, the per-slice (setup_s:
	// per-set-up) values the reported one was reduced from.
	Slices map[string]map[string][][]float64 `json:"slices"`
}

// runSuite runs every workload n times, one seed after another with the
// workloads interleaved so that machine drift falls on all of them
// alike, and writes the values to out.
func runSuite(ctx context.Context, p *paths, n int, seed int64, window time.Duration, out string) int {
	sf := suiteFile{
		NProc: runtime.NumCPU(), Go: runtime.Version(), Loopback: true,
		Seconds: int(window.Seconds()), Runs: map[string]map[string][]float64{},
		Slices: map[string]map[string][][]float64{},
	}
	// Whatever happens, the values measured so far are written out: a
	// set cut short by one failed set-up still shows its spread.
	failed := false
	defer func() {
		data, err := json.MarshalIndent(sf, "", " ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: suite:", err)
		}
	}()
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		sf.Seeds = append(sf.Seeds, s)
		for wi := range workloads {
			wl := &workloads[wi]
			res, err := runEndToEnd(ctx, p, wl, s, window)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: suite: %s seed %d: %v\n", wl.name, s, err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				failed = true
				fmt.Fprintf(os.Stderr, "benchmark: suite: %s seed %d: %d failed, violations %q\n", wl.name, s, res.Failed, res.violations)
			}
			if sf.Runs[wl.name] == nil {
				sf.Runs[wl.name] = map[string][]float64{}
				sf.Slices[wl.name] = map[string][][]float64{}
			}
			for name, mv := range res.Metrics {
				sf.Runs[wl.name][name] = append(sf.Runs[wl.name][name], mv.Value)
			}
			for name, values := range res.perSlice {
				sf.Slices[wl.name][name] = append(sf.Slices[wl.name][name], values)
			}
			fmt.Fprintf(os.Stderr, "suite %d/%d %-18s journey p50 %.3f ms, dispatch p50 %.3f ms, cpu %.3f ms\n", i+1, n, wl.name,
				res.Metrics["journey_ms_p50"].Value, res.Metrics["dispatch_ms_p50"].Value, res.Metrics["cpu_ms_per_journey"].Value)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// judge compares the second set of values (b) with the first (a) for
// one metric. worse is how much b's median is worse than a's, as a
// share of a's (negative when better). A metric whose own run-to-run
// spread (interquartile range over median, either side) exceeds the
// bound cannot show "no change" — it is unresolved — unless every run
// of b beats every run of a.
func judge(m metricSpec, a, b []float64) (worse, spreadA, spreadB float64, verdict string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	worse = sign * perOr0(mb-ma, ma)
	spreadA, spreadB = spreadShare(a), spreadShare(b)
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > m.bound:
		verdict = verdictRegression
	case allBetter:
		verdict = verdictBetter
	case spreadA > m.bound || spreadB > m.bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictOK
	}
	return worse, spreadA, spreadB, verdict
}

// compareFiles prints, per workload, every end-to-end metric's change
// from file a to file b beside its bound, and returns a non-zero exit
// status when any metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var suites [2]*suiteFile
	for i, path := range [2]string{pathA, pathB} {
		var err error
		if suites[i], err = readSuite(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
			return 2
		}
	}
	return compareSuites(w, suites[0], suites[1])
}

func compareSuites(w io.Writer, a, b *suiteFile) int {
	status := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s (runs: %d vs %d)\n", wl.name, len(a.Runs[wl.name]["journey_ms_p50"]), len(b.Runs[wl.name]["journey_ms_p50"]))
		fmt.Fprintf(w, "  %-26s %12s %12s %9s %7s %9s %9s  %s\n", "metric", "median a", "median b", "worse by", "bound", "spread a", "spread b", "verdict")
		for _, m := range endToEnd {
			va, vb := a.Runs[wl.name][m.name], b.Runs[wl.name][m.name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-26s missing from one input\n", m.name)
				status = 1
				continue
			}
			worse, sa, sb, verdict := judge(m, va, vb)
			if verdict == verdictRegression {
				status = 1
			}
			fmt.Fprintf(w, "  %-26s %12.4f %12.4f %+8.2f%% %6.1f%% %8.2f%% %8.2f%%  %s\n",
				m.name, median(va), median(vb), 100*worse, 100*m.bound, 100*sa, 100*sb, verdict)
		}
	}
	return status
}
