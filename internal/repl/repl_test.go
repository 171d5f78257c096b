package repl

import (
	"context"
	"fmt"
	"testing"

	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// router is an inline in-process fabric: addr → mux.
type router struct {
	hosts map[string]*transport.Mux
	down  map[string]bool
}

func newRouter() *router {
	return &router{hosts: map[string]*transport.Mux{}, down: map[string]bool{}}
}

func (r *router) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if r.down[addr] {
		return nil, fmt.Errorf("router: %s unreachable", addr)
	}
	m, ok := r.hosts[addr]
	if !ok {
		return nil, fmt.Errorf("router: no host %s", addr)
	}
	return m.Serve(ctx, req), nil
}

// harness wires two peers A (primary) and B (standby) with a shared
// secret-free identity (tests the repl layer, not the cluster auth).
type harness struct {
	rt   *router
	a, b *Peer
}

func newHarness(t *testing.T, mode Mode) *harness {
	t.Helper()
	rt := newRouter()
	mk := func(self, standby string) *Peer {
		p := NewPeer(Config{
			Self:      self,
			Transport: rt,
			Stamp:     func(req *transport.Request) { req.SetHeader("x-test-origin", self) },
			Authorize: func(req *transport.Request) bool { return true },
			OriginOf:  func(req *transport.Request) string { return req.GetHeader("x-test-origin") },
			StandbyFn: func() string { return standby },
			Mode:      mode,
			Logf:      t.Logf,
		})
		m := transport.NewMux()
		p.Mount(m)
		rt.hosts[self] = m
		return p
	}
	return &harness{rt: rt, a: mk("a", "b"), b: mk("b", "a")}
}

func TestSemiSyncStreamBuildsReplica(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	store := rms.NewMemStore("journal", 0)
	if _, err := store.Add([]byte("pre-attach")); err != nil {
		t.Fatal(err)
	}
	h.a.Replicate("journal", store)

	id, _ := store.Add([]byte("v1"))
	if err := store.Set(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	id2, _ := store.Add([]byte("gone"))
	if err := store.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if n := h.a.PendingOps(); n != 0 {
		t.Fatalf("semi-sync left %d pending ops", n)
	}
	r := h.b.Replica("a", "journal")
	if r == nil {
		t.Fatal("standby holds no replica")
	}
	// The initial snapshot must have carried the pre-attach record.
	replica := r.NewStore("j2")
	ids, _ := replica.IDs()
	want := map[string]bool{"pre-attach": true, "v2": true}
	if len(ids) != len(want) {
		t.Fatalf("replica ids %v, want %d records", ids, len(want))
	}
	for _, rid := range ids {
		data, _ := replica.Get(rid)
		if !want[string(data)] {
			t.Fatalf("replica record %d = %q unexpected", rid, data)
		}
	}
	next, _ := replica.NextID()
	wantNext, _ := store.NextID()
	if next != wantNext {
		t.Fatalf("replica NextID %d, primary %d", next, wantNext)
	}
}

func TestAsyncBuffersUntilFlush(t *testing.T) {
	h := newHarness(t, ModeAsync)
	store := rms.NewMemStore("journal", 0)
	h.a.Replicate("journal", store)
	for i := 0; i < 5; i++ {
		if _, err := store.Add([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.a.PendingOps(); n != 5 {
		t.Fatalf("buffered %d ops, want 5", n)
	}
	if h.b.Has("a") {
		t.Fatal("standby has replica before first flush")
	}
	h.a.Flush(context.Background())
	if n := h.a.PendingOps(); n != 0 {
		t.Fatalf("%d ops still pending after flush", n)
	}
	r := h.b.Replica("a", "journal")
	if r == nil || len(r.Records) != 5 {
		t.Fatalf("replica = %+v, want 5 records", r)
	}
}

func TestStandbyOutageDegradesAndRecovers(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	store := rms.NewMemStore("journal", 0)
	h.a.Replicate("journal", store)
	if _, err := store.Add([]byte("before")); err != nil {
		t.Fatal(err)
	}

	h.rt.down["b"] = true
	if _, err := store.Add([]byte("during-1")); err != nil {
		t.Fatal(err) // commit must succeed even with the standby dark
	}
	if _, err := store.Add([]byte("during-2")); err != nil {
		t.Fatal(err)
	}
	if n := h.a.PendingOps(); n == 0 {
		t.Fatal("outage window not reflected in PendingOps")
	}

	h.rt.down["b"] = false
	h.a.Flush(context.Background())
	if n := h.a.PendingOps(); n != 0 {
		t.Fatalf("%d ops pending after recovery flush", n)
	}
	r := h.b.Replica("a", "journal")
	if r == nil || len(r.Records) != 3 {
		t.Fatalf("replica has %+v, want all 3 records", r)
	}
}

func TestReceiverLossTriggersResnapshot(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	store := rms.NewMemStore("journal", 0)
	h.a.Replicate("journal", store)
	if _, err := store.Add([]byte("one")); err != nil {
		t.Fatal(err)
	}
	// Standby forgets everything (crash without disk — replicas are
	// memory-only by design).
	h.b.Take("a")
	if _, err := store.Add([]byte("two")); err != nil {
		t.Fatal(err)
	}
	// The stream got a Conflict; the next flush must re-snapshot.
	h.a.Flush(context.Background())
	r := h.b.Replica("a", "journal")
	if r == nil || len(r.Records) != 2 {
		t.Fatalf("replica after anti-entropy = %+v, want 2 records", r)
	}
}

func TestTakeGuardsPromotion(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	store := rms.NewMemStore("journal", 0)
	h.a.Replicate("journal", store)
	if _, err := store.Add([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if !h.b.Has("a") {
		t.Fatal("standby should hold a's replica")
	}
	rs := h.b.Take("a")
	if rs == nil || rs["journal"] == nil {
		t.Fatalf("Take returned %+v", rs)
	}
	if h.b.Has("a") {
		t.Fatal("replica still held after Take")
	}
}

func TestFetchServesReplicaBack(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	store := rms.NewMemStore("journal", 0)
	h.a.Replicate("journal", store)
	id, _ := store.Add([]byte("payload"))
	r, err := h.a.Fetch(context.Background(), "b", "a", "journal")
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Records[id]) != "payload" {
		t.Fatalf("fetched replica = %+v", r)
	}
	if _, err := h.a.Fetch(context.Background(), "b", "nobody", "journal"); err == nil {
		t.Fatal("fetch of unknown primary should error")
	}
}

func TestCrossPrimaryWriteRefused(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	// A request claiming primary "b" but stamped origin "a" must be
	// refused: one member cannot overwrite another's replica.
	req := &transport.Request{Path: PathSnapshot}
	req.SetHeader("x-test-origin", "a")
	req.SetHeader(hdrPrimary, "b")
	req.SetHeader(hdrRole, "journal")
	req.SetHeader(hdrSeq, "1")
	req.SetHeader(hdrNextID, "1")
	resp, err := h.rt.RoundTrip(context.Background(), "b", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusForbidden {
		t.Fatalf("status %d, want forbidden", resp.Status)
	}
}

func TestWALStoreSemiSyncEndToEnd(t *testing.T) {
	h := newHarness(t, ModeSemiSync)
	dir := t.TempDir()
	s, err := rms.OpenWALStore(dir, rms.WALOptions{Sync: rms.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h.a.Replicate("journal", s)
	const n = 40
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.Add([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:10] {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(context.Background()) // drain any group-commit stragglers
	r := h.b.Replica("a", "journal")
	if r == nil {
		t.Fatal("no replica")
	}
	if len(r.Records) != n-10 {
		t.Fatalf("replica has %d records, want %d", len(r.Records), n-10)
	}
	for _, id := range ids[10:] {
		if r.Records[id] == nil {
			t.Fatalf("replica missing record %d", id)
		}
	}
}
