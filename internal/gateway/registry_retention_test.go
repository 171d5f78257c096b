package gateway

import (
	"testing"
	"time"

	"pdagent/internal/tenant"
)

// These tests cover the registry's retention queues: ExpireResults and
// PruneGone must pop ripe entries from their per-shard queues without
// scanning the dispatch map, and stale queue entries (agents released
// or resurrected since they were queued) must be skipped harmlessly.

func TestExpireResultsPopsOnlyRipe(t *testing.T) {
	r := NewRegistry()
	r.CreateAgent("a1", "echo", "dev", tenant.DefaultID, "", "")
	r.CompleteAgent("a1", "echo", "dev", 11, "done")
	r.CreateAgent("a2", "echo", "dev", tenant.DefaultID, "", "")
	r.CompleteAgent("a2", "echo", "dev", 12, "done")

	// A cutoff before completion reclaims nothing and leaves the queues
	// intact.
	if got := r.ExpireResults(time.Now().Add(-time.Hour)); len(got) != 0 {
		t.Fatalf("premature sweep expired %d results", len(got))
	}
	if st, ok := r.Agent("a1"); !ok || !st.Done || st.Gone {
		t.Fatalf("a1 after premature sweep: %+v", st)
	}

	exp := r.ExpireResults(time.Now().Add(time.Hour))
	if len(exp) != 2 {
		t.Fatalf("expired %d results, want 2", len(exp))
	}
	docs := map[int]bool{}
	for _, e := range exp {
		docs[e.DocID] = true
	}
	if !docs[11] || !docs[12] {
		t.Fatalf("expired doc ids %v, want {11, 12}", docs)
	}
	// Both flipped to the terminal tombstone state...
	for _, id := range []string{"a1", "a2"} {
		if st, ok := r.Agent(id); !ok || st.Done || !st.Gone {
			t.Fatalf("%s after expiry: %+v (ok=%v)", id, st, ok)
		}
	}
	// ...and a second sweep finds an empty queue, not the same agents.
	if got := r.ExpireResults(time.Now().Add(time.Hour)); len(got) != 0 {
		t.Fatalf("second sweep re-expired %d results", len(got))
	}
}

func TestPruneGoneTombstoneLifecycle(t *testing.T) {
	r := NewRegistry()
	r.CreateAgent("a1", "echo", "dev", tenant.DefaultID, "", "")
	r.CompleteAgent("a1", "echo", "dev", 7, "done")
	if got := r.ExpireResults(time.Now().Add(time.Hour)); len(got) != 1 {
		t.Fatalf("expired %d results, want 1", len(got))
	}

	// The tombstone answers late askers ("expired", not "unknown") until
	// its own retention passes.
	if n := r.PruneGone(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("premature prune removed %d tombstones", n)
	}
	if !r.KnownAgent("a1") {
		t.Fatal("tombstone vanished before its retention")
	}
	if n := r.PruneGone(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("prune removed %d tombstones, want 1", n)
	}
	if r.KnownAgent("a1") {
		t.Fatal("agent still known after tombstone prune")
	}
	if n := r.PruneGone(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("second prune removed %d tombstones", n)
	}
}

// TestPruneGoneSkipsResurrected: a late completion can resurrect an
// expired agent (its result becomes collectable again); the stale
// tombstone queued by the earlier expiry must not delete it.
func TestPruneGoneSkipsResurrected(t *testing.T) {
	r := NewRegistry()
	r.CreateAgent("a1", "echo", "dev", tenant.DefaultID, "", "")
	r.CompleteAgent("a1", "echo", "dev", 7, "done")
	if got := r.ExpireResults(time.Now().Add(time.Hour)); len(got) != 1 {
		t.Fatalf("expired %d results, want 1", len(got))
	}
	r.CompleteAgent("a1", "echo", "dev", 8, "done again")

	if n := r.PruneGone(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("prune deleted a resurrected agent (%d removed)", n)
	}
	st, ok := r.Agent("a1")
	if !ok || !st.Done || st.DocID != 8 {
		t.Fatalf("resurrected agent: %+v (ok=%v)", st, ok)
	}

	// The second life expires like the first.
	exp := r.ExpireResults(time.Now().Add(time.Hour))
	if len(exp) != 1 || exp[0].DocID != 8 {
		t.Fatalf("second expiry = %+v, want doc 8", exp)
	}
	if n := r.PruneGone(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("final prune removed %d, want 1", n)
	}
	if r.KnownAgent("a1") {
		t.Fatal("agent still known after final prune")
	}
}

// TestReleaseAgentQueuesTombstone: disposal tombstones ride the same
// retention queue as expiry tombstones.
func TestReleaseAgentQueuesTombstone(t *testing.T) {
	r := NewRegistry()
	r.CreateAgent("a1", "echo", "dev", tenant.DefaultID, "", "")
	if !r.ReleaseAgent("a1", "disposed by owner") {
		t.Fatal("release failed")
	}
	if n := r.PruneGone(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("premature prune removed %d", n)
	}
	if !r.KnownAgent("a1") {
		t.Fatal("disposal tombstone vanished early")
	}
	if n := r.PruneGone(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("prune removed %d, want 1", n)
	}
	if r.KnownAgent("a1") {
		t.Fatal("agent still known after prune")
	}
}
