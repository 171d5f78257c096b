package main

import (
	"os"
	"testing"
)

func TestParseMetricsKeepsLabelsAndSkipsComments(t *testing.T) {
	m := parseMetrics([]byte(`# HELP pdagent_dispatch_total Device dispatches handled.
# TYPE pdagent_dispatch_total counter
pdagent_dispatch_total 3000
pdagent_dispatch_us{quantile="0.5"} 1450
pdagent_dispatch_us_sum 4350000
pdagent_wal_max_fsync_us 3840.5

garbage-without-a-value
`))
	for name, want := range map[string]float64{
		"pdagent_dispatch_total":              3000,
		`pdagent_dispatch_us{quantile="0.5"}`: 1450,
		"pdagent_dispatch_us_sum":             4350000,
		"pdagent_wal_max_fsync_us":            3840.5,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if len(m) != 4 {
		t.Errorf("parsed %d series, want 4: %v", len(m), m)
	}
}

func TestProcReadsOwnProcess(t *testing.T) {
	// Burn a little CPU so the tick counter cannot read zero forever.
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	_ = x
	ticks, err := procCPUTicks(os.Getpid())
	if err != nil || ticks < 0 {
		t.Fatalf("procCPUTicks = %v, %v", ticks, err)
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Fatalf("procPeakRSSMB = %v, %v", rss, err)
	}
	if _, err := procCPUTicks(-1); err == nil {
		t.Error("a process that does not exist must be an error, not zero CPU")
	}
}

func TestSnapshotAggregates(t *testing.T) {
	s := &snapshot{
		metrics:  []map[string]float64{{"a": 1, "m": 5}, {"a": 2, "m": 9}, {"a": 4}},
		cpuTicks: []float64{10, 20, 30},
	}
	if got := s.sum("a", allMembers...); got != 7 {
		t.Errorf("sum = %v", got)
	}
	if got := s.sum("a", 0); got != 1 {
		t.Errorf("sum over the gateway alone = %v", got)
	}
	if got := s.max("m", allMembers...); got != 9 {
		t.Errorf("max = %v", got)
	}
}
