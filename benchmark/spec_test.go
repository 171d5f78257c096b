package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
// DisallowUnknownFields below makes an extra key a test failure.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the driver reads; spec.go is what the program
// reports. They must say the same thing, within the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}

	if got := strings.Join(bj.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command = %q", got)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from spec.go's %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside the contract", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q is outside the contract", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better = %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		s := endToEnd[i]
		checkName(m.Name, m.Unit, m.Better)
		if m.Bound == nil || m.Name != s.name || m.Unit != s.unit || m.Better != s.better || *m.Bound != s.bound {
			t.Errorf("end_to_end %d: %+v differs from spec.go's %+v", i, m, s)
			continue
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s (unit s, lower is better)")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		s := perLayer[i]
		checkName(m.Name, m.Unit, m.Better)
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer %d: %+v differs from spec.go's %+v", i, m, s)
		}
	}
}
