package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{name: "journey_ms_p50", unit: "ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "goodput_per_s", unit: "1/s", better: "higher", bound: 0.05}
	tight := func(c float64) []float64 { // spread ≈ 1% of c
		return []float64{c * 0.995, c, c * 1.005, c, c * 0.998, c * 1.002}
	}
	wide := func(c float64) []float64 { // spread ≈ 40% of c
		return []float64{c * 0.7, c * 0.8, c, c, c * 1.2, c * 1.3}
	}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(5), tight(5.1), verdictOK},
		{"slower past the bound", lower, tight(5), tight(5.6), verdictRegression},
		{"slower within the bound", lower, tight(5), tight(5.4), verdictOK},
		{"every run faster", lower, tight(5), tight(4), verdictBetter},
		{"noise wider than the bound", lower, wide(5), wide(5.1), verdictUnresolved},
		{"noisy and past the bound is still a regression", lower, wide(5), wide(6), verdictRegression},
		{"higher is better: fell past the bound", higher, tight(150), tight(140), verdictRegression},
		{"higher is better: rose", higher, tight(140), tight(150), verdictBetter},
	} {
		if _, _, _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if worse, _, _, _ := judge(higher, tight(150), tight(135)); worse < 0.099 || worse > 0.101 {
		t.Errorf("goodput 150 -> 135 is 10%% worse, got %.4f", worse)
	}
}

func suiteOf(scale float64) *suiteFile {
	sf := &suiteFile{Runs: map[string]map[string][]float64{}}
	for _, wl := range workloads {
		sf.Runs[wl.name] = map[string][]float64{}
		for _, m := range endToEnd {
			v := 10.0
			if m.name == "journey_ms_p50" && wl.name == "ebank_journey" {
				v *= scale
			}
			sf.Runs[wl.name][m.name] = []float64{v, v * 1.001, v * 0.999, v}
		}
	}
	return sf
}

func TestCompareExitStatusAndReport(t *testing.T) {
	var out bytes.Buffer
	if status := compareSuites(&out, suiteOf(1), suiteOf(1)); status != 0 {
		t.Errorf("identical suites: exit %d\n%s", status, out.String())
	}
	out.Reset()
	if status := compareSuites(&out, suiteOf(1), suiteOf(1.5)); status == 0 {
		t.Error("a 50% slower p50 on one workload must exit non-zero")
	}
	report := out.String()
	if n := strings.Count(report, verdictRegression); n != 1 {
		t.Errorf("%d regressions reported, want exactly the one injected:\n%s", n, report)
	}
	for _, wl := range workloads {
		if !strings.Contains(report, wl.name) {
			t.Errorf("report has no section for %s", wl.name)
		}
	}
	if !strings.Contains(report, "25.0%") {
		t.Errorf("report does not show the metric's bound beside its delta:\n%s", report)
	}
	missing := suiteOf(1)
	delete(missing.Runs["echo_plain"], "setup_s")
	if status := compareSuites(&out, suiteOf(1), missing); status == 0 {
		t.Error("a metric missing from one input must not pass")
	}
}
