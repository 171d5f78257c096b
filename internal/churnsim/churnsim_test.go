package churnsim

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"pdagent/internal/metrics"
	"pdagent/internal/rms"
)

// TestScriptValidate rejects malformed scripts and accepts generated
// ones.
func TestScriptValidate(t *testing.T) {
	if err := (Script{}).Validate(); err == nil {
		t.Fatal("empty script validated")
	}
	bad := Script{Phases: []Phase{{Name: "p", Duration: time.Second, Joins: -1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative counts validated")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s := Generate(rng, 1+rng.Intn(6), 4+rng.Intn(100))
		if err := s.Validate(); err != nil {
			t.Fatalf("generated script %d invalid: %v", i, err)
		}
	}
}

// TestRunScriptConservation is the core churn property: for any
// generated join/leave/crash/reconnect script, every enqueued entry is
// delivered exactly once, expired, or evicted — never lost, never
// duplicated — across any number of simulated gateway crashes.
func TestRunScriptConservation(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		s := Generate(rng, 2+rng.Intn(5), 20+rng.Intn(180))
		res, err := RunScript(s, FleetConfig{
			Quota: 16,
			// A short TTL relative to phase durations so some offline
			// mail genuinely expires and the expired leg of the
			// conservation equation is exercised.
			TTL: 3 * time.Minute,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.CheckConservation(); err != nil {
			t.Fatalf("seed %d: %v (result %+v)", seed, err, res)
		}
		if res.Enqueued == 0 {
			continue
		}
		if res.Delivered == 0 && res.ExpiredTTL == 0 && res.EvictedQuota == 0 {
			t.Fatalf("seed %d: %d entries enqueued but none accounted", seed, res.Enqueued)
		}
	}
}

// TestRunScriptCrashReplay: a script that crashes every phase still
// conserves mail (the durable store replay carries it across
// generations).
func TestRunScriptCrashReplay(t *testing.T) {
	s := Script{Seed: 11, Phases: []Phase{
		{Name: "build", Duration: time.Minute, Joins: 50, Mail: 100},
		{Name: "crash1", Duration: time.Minute, CrashGateway: true, Leaves: 30, Mail: 100},
		{Name: "crash2", Duration: time.Minute, CrashGateway: true, Reconnects: 20, Mail: 100},
		{Name: "crash3", Duration: time.Minute, CrashGateway: true, Reconnects: 30},
	}}
	res, err := RunScript(s, FleetConfig{Quota: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3", res.Crashes)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if res.Redelivered != 0 {
		t.Fatalf("crash replay redelivered %d entries", res.Redelivered)
	}
}

// TestStormScriptShape: the canonical storm script accumulates a
// backlog while the fleet is dark and drains it all on reconnect.
func TestStormScriptShape(t *testing.T) {
	devices := 2000
	res, err := RunScript(StormScript(devices, 2, 30*time.Second), FleetConfig{Quota: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if res.Devices != devices {
		t.Fatalf("devices = %d", res.Devices)
	}
	// The dark phase builds a real backlog (mail sent while a device is
	// still online drains instantly, so the peak is below the full
	// devices×entries volume but must still be fleet-sized)...
	if res.PeakPending < devices/2 {
		t.Fatalf("peak pending = %d, want >= %d (backlog never built)", res.PeakPending, devices/2)
	}
	// ...and the storm drains it completely.
	if res.Pending != 0 {
		t.Fatalf("pending after storm = %d", res.Pending)
	}
	// Offline accumulation means nonzero drain latency for most mail.
	if res.Drain.Quantile(0.5) == 0 {
		t.Fatalf("median drain latency 0 in a storm (histogram: n=%d)", res.Drain.Count())
	}
}

// TestDiurnalScriptShape: the day-shaped wave conserves mail with a
// mostly-online fleet (low drain latencies, no backlog at the end).
func TestDiurnalScriptShape(t *testing.T) {
	res, err := RunScript(DiurnalScript(500, 8), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 {
		t.Fatalf("pending after waves = %d", res.Pending)
	}
}

// TestRunMigrationOneLiveOwner is the migration property: for random
// member counts and lost-ack rates, every mailbox converges to exactly
// one live owner and nothing is delivered twice.
func TestRunMigrationOneLiveOwner(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		cfg := MigrationConfig{
			Devices:          50 + rng.Intn(100),
			EntriesPerDevice: 1 + rng.Intn(5),
			Members:          2 + rng.Intn(3),
			Seed:             int64(seed),
			LoseAckFrac:      rng.Float64() * 0.5,
		}
		if err := RunMigration(cfg); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
	}
}

// TestReconnectStormDeterminism: the same seed yields bit-identical
// virtual-time percentiles — the property that makes them safe to gate
// in CI across machines.
func TestReconnectStormDeterminism(t *testing.T) {
	run := func() *StormResult {
		res, err := ReconnectStorm(StormConfig{Devices: 1500, Window: 10 * time.Second, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a.Drain.Quantile(q) != b.Drain.Quantile(q) {
			t.Fatalf("p%g differs across runs: %v vs %v", q*100, a.Drain.Quantile(q), b.Drain.Quantile(q))
		}
	}
	if a.QueueTime != b.QueueTime || a.Delivered != b.Delivered {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
	if a.Delivered != uint64(a.Entries) {
		t.Fatalf("delivered %d/%d", a.Delivered, a.Entries)
	}
}

// TestReconnectStormCluster: a storm through the wrong edge — every
// device reconnects at a member that does not hold its mailbox, the
// mailbox migrates under load, and nothing is lost, duplicated or
// stranded at the old edge.
func TestReconnectStormCluster(t *testing.T) {
	res, err := ReconnectStorm(StormConfig{
		Devices: 800,
		Members: 3,
		Window:  20 * time.Second,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != uint64(res.Entries) || res.Redelivered != 0 {
		t.Fatalf("cluster storm delivered %d/%d, %d redelivered", res.Delivered, res.Entries, res.Redelivered)
	}
	if res.MigrationPulls != res.Devices {
		t.Fatalf("migration pulls = %d, want %d", res.MigrationPulls, res.Devices)
	}
}

// TestReconnectStormWALStore runs the cluster storm with every
// member's mailbox on the durable group-commit WAL instead of a
// MemStore: the delivery invariants must hold unchanged, and after the
// storm each store must recover cleanly from its own log — the proof
// the storage engine survives a real workload, not just unit ops.
func TestReconnectStormWALStore(t *testing.T) {
	dirs := make([]string, 2)
	stores := make([]rms.Store, 2)
	res, err := ReconnectStorm(StormConfig{
		Devices: 300,
		Members: 2,
		Window:  10 * time.Second,
		Seed:    3,
		NewStore: func(member int) rms.Store {
			dirs[member] = filepath.Join(t.TempDir(), "mb.wal")
			s, err := rms.OpenWALStore(dirs[member], rms.WALOptions{})
			if err != nil {
				t.Fatalf("member %d store: %v", member, err)
			}
			stores[member] = s
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != uint64(res.Entries) || res.Redelivered != 0 {
		t.Fatalf("wal storm delivered %d/%d, %d redelivered", res.Delivered, res.Entries, res.Redelivered)
	}
	for member, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatalf("member %d close: %v", member, err)
		}
		re, err := rms.OpenWALStore(dirs[member], rms.WALOptions{})
		if err != nil {
			t.Fatalf("member %d reopen after storm: %v", member, err)
		}
		re.Close()
	}
}

// TestReconnectStorm100k is the headline scale scenario (CI-short
// runs it too): 100,000 devices drain their mailboxes inside one
// 30-second virtual window against a deliberately tight middle tier,
// and the virtual-time percentiles expose the queueing tail.
func TestReconnectStorm100k(t *testing.T) {
	res, err := ReconnectStorm(StormConfig{
		Devices: 100_000,
		Window:  30 * time.Second,
		Seed:    1,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != uint64(res.Entries) || res.Redelivered != 0 {
		t.Fatalf("storm delivered %d/%d, %d redelivered", res.Delivered, res.Entries, res.Redelivered)
	}
	p50, p99, p999 := res.Drain.Quantile(0.5), res.Drain.Quantile(0.99), res.Drain.Quantile(0.999)
	t.Logf("drain p50=%dµs p99=%dµs p999=%dµs max=%dµs queue=%v service=%v wall=%v",
		p50, p99, p999, res.Drain.MaxUS(), res.QueueTime, res.ServiceTime, res.WallTime)
	if p50 == 0 || p99 < p50 || p999 < p99 {
		t.Fatalf("implausible percentiles: p50=%dµs p99=%dµs p999=%dµs", p50, p99, p999)
	}
	// Virtual-time quantities from a pinned seed: the same on every
	// machine, so a different reading means the delivery path changed —
	// round trips or bytes per drain over the wireless link — not that
	// the runner was slow. Readings are histogram bucket midpoints, 65 ms
	// apart at this range.
	if p50 != 1146880 || p99 != 1343488 {
		t.Fatalf("drain p50=%dµs p99=%dµs, pinned at 1146880µs / 1343488µs", p50, p99)
	}
	// 200k requests against a single 100µs server inside 30s runs the
	// middle tier at ~67% utilisation: the tail must show real queueing
	// beyond the bare link RTT.
	if res.QueueTime == 0 {
		t.Fatal("no queueing observed — capacity model not engaged")
	}
}

// TestHistogramQuantiles: quantiles of a known uniform distribution,
// observed as durations the way the simulator records its drain and
// session latencies, come back within bucket resolution.
func TestHistogramQuantiles(t *testing.T) {
	h := &metrics.Histogram{}
	for i := 1; i <= 100_000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond) // uniform 1µs..100ms
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 99_900 * time.Microsecond},
	}
	for _, c := range checks {
		got := time.Duration(h.Quantile(c.q)) * time.Microsecond
		lo := time.Duration(float64(c.want) * 0.95)
		hi := time.Duration(float64(c.want) * 1.05)
		if got < lo || got > hi {
			t.Fatalf("p%g = %v, want ~%v", c.q*100, got, c.want)
		}
	}
	if max := time.Duration(h.MaxUS()) * time.Microsecond; max != 100*time.Millisecond {
		t.Fatalf("max = %v", max)
	}
	if m := time.Duration(h.MeanUS()) * time.Microsecond; m < 49*time.Millisecond || m > 51*time.Millisecond {
		t.Fatalf("mean = %v", m)
	}
}
