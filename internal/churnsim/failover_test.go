package churnsim

import (
	"testing"
	"time"

	"pdagent/internal/repl"
)

// The failover chaos drills: kill the member holding every mailbox
// mid-reconnect-storm, with its store destroyed, and prove the ledger
// invariants across the promotion. Sized to stay fast under -race.

func crashStormSize(t *testing.T) int {
	if testing.Short() {
		return 400
	}
	return 2_000
}

func TestCrashStormSemiSyncLosesNothing(t *testing.T) {
	res, err := ReconnectStorm(StormConfig{
		Devices:          crashStormSize(t),
		EntriesPerDevice: 2,
		Window:           30 * time.Second,
		Crash:            repl.ModeSemiSync,
		Seed:             71,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Delivered != res.Enqueued {
		t.Fatalf("semi-sync lost %d of %d entries", res.Lost, res.Enqueued)
	}
	if res.Redelivered != 0 {
		t.Fatalf("redelivered = %d, want 0", res.Redelivered)
	}
	if res.PromotedMailboxes == 0 {
		t.Fatal("promotion imported no mailboxes")
	}
	if res.Fence == 0 {
		t.Fatal("no fencing epoch raised over the dead member")
	}
}

func TestCrashStormAsyncLossBoundedByWindow(t *testing.T) {
	res, err := ReconnectStorm(StormConfig{
		Devices:          crashStormSize(t),
		EntriesPerDevice: 2,
		Window:           30 * time.Second,
		Crash:            repl.ModeAsync,
		Seed:             73,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pre-kill wave was never flushed, so the async window is real:
	// some loss happened, and it stayed inside the sampled bound.
	if res.Lost == 0 {
		t.Fatal("async drill lost nothing — the crash raced no replication tail")
	}
	if int(res.Lost) > res.LostWindow {
		t.Fatalf("async lost %d entries, window was %d ops", res.Lost, res.LostWindow)
	}
	if res.Redelivered != 0 {
		t.Fatalf("redelivered = %d, want 0", res.Redelivered)
	}
}

// TestCrashStormDeterminism: the same seed gives the same crash — the
// same replication window at the kill, the same loss and the same
// drain percentiles — so a crash drill's figures can be compared
// across runs and machines like the plain storm's.
func TestCrashStormDeterminism(t *testing.T) {
	run := func() *StormResult {
		res, err := ReconnectStorm(StormConfig{
			Devices:          crashStormSize(t),
			EntriesPerDevice: 2,
			Window:           30 * time.Second,
			Crash:            repl.ModeAsync,
			Seed:             73,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Lost != b.Lost || a.LostWindow != b.LostWindow || a.Delivered != b.Delivered {
		t.Fatalf("runs diverged: lost %d/%d, window %d/%d, delivered %d/%d",
			a.Lost, b.Lost, a.LostWindow, b.LostWindow, a.Delivered, b.Delivered)
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Drain.Quantile(q) != b.Drain.Quantile(q) {
			t.Fatalf("p%g differs across runs: %v vs %v", q*100, a.Drain.Quantile(q), b.Drain.Quantile(q))
		}
	}
}
