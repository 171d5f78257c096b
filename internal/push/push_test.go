package push

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pdagent/internal/rms"
)

func newTestHub(t *testing.T, store rms.Store, mut func(*Config)) *Hub {
	t.Helper()
	cfg := Config{Store: store}
	if mut != nil {
		mut(&cfg)
	}
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustEnqueue(t *testing.T, h *Hub, dev, kind, agent, event string, body string) uint64 {
	t.Helper()
	seq, dup, err := h.Enqueue(dev, kind, agent, event, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatalf("unexpected dup for event %q", event)
	}
	return seq
}

func TestEnqueuePollAck(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), nil)
	if seq := mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "<r/>"); seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	mustEnqueue(t, h, "alice", KindStatus, "ag-2", "status:ag-2", "disposed")

	entries, watermark, evicted, err := h.Poll("alice", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || watermark != 2 || evicted != 0 {
		t.Fatalf("poll = %d entries wm %d ev %d, want 2/2/0", len(entries), watermark, evicted)
	}
	if entries[0].Seq != 1 || entries[0].Kind != KindResult || string(entries[0].Body) != "<r/>" {
		t.Fatalf("entry 0 = %+v", entries[0])
	}

	// A re-poll with the same cursor redelivers (at-least-once until
	// acked)...
	entries, _, _, _ = h.Poll("alice", 0, 0)
	if len(entries) != 2 {
		t.Fatalf("re-poll = %d entries, want 2", len(entries))
	}
	// ...and acking the watermark retires both.
	entries, watermark, _, _ = h.Poll("alice", 2, 0)
	if len(entries) != 0 || watermark != 2 {
		t.Fatalf("post-ack poll = %d entries wm %d, want 0/2", len(entries), watermark)
	}
	if n, _ := h.cfg.Store.NumRecords(); n != 1 { // only the meta record remains
		t.Fatalf("store has %d records after full ack, want 1 (meta)", n)
	}
	// Seqs keep increasing after a full drain.
	if seq := mustEnqueue(t, h, "alice", KindResult, "ag-3", "result:ag-3", "x"); seq != 3 {
		t.Fatalf("post-drain seq = %d, want 3", seq)
	}
}

func TestEnqueueDedupByEventID(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), nil)
	seq := mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "<r/>")
	seq2, dup, err := h.Enqueue("alice", KindResult, "ag-1", "result:ag-1", []byte("<r/>"))
	if err != nil || !dup || seq2 != seq {
		t.Fatalf("replayed enqueue = seq %d dup %v err %v, want %d/true/nil", seq2, dup, err, seq)
	}
	// Dedup survives delivery: the device must not get a second copy of
	// a result it already processed just because a relay retried late.
	if _, err := h.Ack("alice", seq); err != nil {
		t.Fatal(err)
	}
	if _, dup, _ := h.Enqueue("alice", KindResult, "ag-1", "result:ag-1", []byte("<r/>")); !dup {
		t.Fatal("event replay after ack was not deduplicated")
	}
	if st := h.Stats(); st.Duplicates != 2 || st.Enqueued != 1 {
		t.Fatalf("stats = %+v, want 2 duplicates, 1 enqueued", st)
	}
}

func TestQuotaEvictsOldestExpendableFirst(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), func(c *Config) { c.Quota = 3 })
	mustEnqueue(t, h, "d", KindResult, "ag-1", "result:ag-1", "r1") // oldest, but a result
	mustEnqueue(t, h, "d", KindStatus, "ag-2", "status:ag-2", "s1") // evicted first
	mustEnqueue(t, h, "d", KindResult, "ag-3", "result:ag-3", "r2")
	mustEnqueue(t, h, "d", KindResult, "ag-4", "result:ag-4", "r3") // pushes one out

	entries, _, evicted, _ := h.Poll("d", 0, 0)
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	var kinds []string
	for _, e := range entries {
		kinds = append(kinds, e.Kind)
	}
	if len(entries) != 3 || entries[0].AgentID != "ag-1" {
		t.Fatalf("surviving entries %v (kinds %v): the status entry should have been evicted, not the oldest result", entries, kinds)
	}
	for _, e := range entries {
		if e.Kind != KindResult {
			t.Fatalf("expendable entry survived: %+v", e)
		}
	}

	// With only results pending, quota falls back to oldest-first.
	mustEnqueue(t, h, "d", KindResult, "ag-5", "result:ag-5", "r4")
	entries, _, evicted, _ = h.Poll("d", 0, 0)
	if evicted != 2 || entries[0].AgentID != "ag-3" {
		t.Fatalf("after result eviction: evicted %d, first %s; want 2, ag-3", evicted, entries[0].AgentID)
	}
	if st := h.Stats(); st.EvictedQuota != 2 {
		t.Fatalf("EvictedQuota = %d, want 2", st.EvictedQuota)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	h := newTestHub(t, rms.NewMemStore("mb", 0), func(c *Config) {
		c.TTL = time.Minute
		c.Clock = func() time.Time { return now }
	})
	mustEnqueue(t, h, "d", KindResult, "ag-1", "result:ag-1", "r1")
	now = now.Add(30 * time.Second)
	mustEnqueue(t, h, "d", KindStatus, "ag-2", "status:ag-2", "s1")

	now = now.Add(45 * time.Second) // first entry now 75s old, second 45s
	if n := h.SweepExpired(); n != 1 {
		t.Fatalf("sweep dropped %d, want 1", n)
	}
	entries, _, evicted, _ := h.Poll("d", 0, 0)
	if len(entries) != 1 || entries[0].AgentID != "ag-2" || evicted != 1 {
		t.Fatalf("post-sweep: %d entries (first %s), evicted %d", len(entries), entries[0].AgentID, evicted)
	}
	if st := h.Stats(); st.EvictedTTL != 1 {
		t.Fatalf("EvictedTTL = %d, want 1", st.EvictedTTL)
	}
}

// TestReplayAfterCrash is the crash-recovery drill at the hub level:
// the store survives, the process state does not.
func TestReplayAfterCrash(t *testing.T) {
	store := rms.NewMemStore("mb", 0)
	h := newTestHub(t, store, nil)
	mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "r1")
	mustEnqueue(t, h, "alice", KindResult, "ag-2", "result:ag-2", "r2")
	mustEnqueue(t, h, "bob", KindStatus, "ag-9", "status:ag-9", "s")
	if _, err := h.Ack("alice", 1); err != nil {
		t.Fatal(err)
	}

	// "Crash": reopen a fresh hub over the same store.
	h2 := newTestHub(t, store, nil)
	entries, watermark, _, _ := h2.Poll("alice", 0, 0)
	if len(entries) != 1 || entries[0].Seq != 2 || entries[0].AgentID != "ag-2" || watermark != 2 {
		t.Fatalf("alice after replay: %d entries, first %+v, wm %d", len(entries), entries[0], watermark)
	}
	if n := h2.Pending("bob"); n != 1 {
		t.Fatalf("bob pending = %d, want 1", n)
	}
	// Seq allocation stays monotonic (no reuse of acked seqs).
	if seq := mustEnqueue(t, h2, "alice", KindResult, "ag-3", "result:ag-3", "r3"); seq != 3 {
		t.Fatalf("post-replay seq = %d, want 3", seq)
	}
	// The dedup window survived the crash: re-relaying an already-acked
	// result must not resurrect it.
	if _, dup, _ := h2.Enqueue("alice", KindResult, "ag-1", "result:ag-1", []byte("r1")); !dup {
		t.Fatal("crash lost the dedup window: acked result re-enqueued")
	}
}

// TestReplayDropsAckedEntries simulates a crash between the cursor
// write and the entry deletes: replay must finish the ack, not
// resurrect the entries.
func TestReplayDropsAckedEntries(t *testing.T) {
	store := rms.NewMemStore("mb", 0)
	h := newTestHub(t, store, nil)
	mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "r1")
	mustEnqueue(t, h, "alice", KindResult, "ag-2", "result:ag-2", "r2")

	// Forge the torn state: advance the persisted cursor without
	// deleting the entry records (exactly what a crash mid-Ack leaves).
	mb, _ := h.lookup("alice")
	mb.mu.Lock()
	mb.cursor = 2
	h.writeMetaLocked(mb)
	mb.mu.Unlock()

	h2 := newTestHub(t, store, nil)
	if entries, _, _, _ := h2.Poll("alice", 0, 0); len(entries) != 0 {
		t.Fatalf("torn ack resurrected %d entries", len(entries))
	}
	if n, _ := store.NumRecords(); n != 1 {
		t.Fatalf("store has %d records, want 1 (meta only)", n)
	}
}

func TestWaitWakesOnEnqueueAndClose(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), nil)

	// Pending mail: Wait returns an already-closed channel, so the
	// arm-then-check race of a long-poll loop cannot miss a wakeup.
	mustEnqueue(t, h, "d", KindResult, "ag-1", "result:ag-1", "r")
	select {
	case <-h.Wait("d"):
	default:
		t.Fatal("Wait not ready with pending mail")
	}
	if _, err := h.Ack("d", 1); err != nil {
		t.Fatal(err)
	}

	ch := h.Wait("d")
	select {
	case <-ch:
		t.Fatal("Wait ready with empty mailbox")
	default:
	}
	mustEnqueue(t, h, "d", KindResult, "ag-2", "result:ag-2", "r")
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("enqueue did not wake the waiter")
	}

	h2 := newTestHub(t, rms.NewMemStore("mb2", 0), nil)
	ch2 := h2.Wait("d")
	h2.Close()
	select {
	case <-ch2:
	case <-time.After(time.Second):
		t.Fatal("Close did not wake the waiter")
	}
}

func TestPresence(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), nil)
	if h.Connected("d") {
		t.Fatal("device connected before any session")
	}
	disc := h.Connect("d")
	if !h.Connected("d") || h.Stats().Connected != 1 {
		t.Fatal("Connect not reflected")
	}
	disc()
	disc() // idempotent
	if h.Connected("d") || h.Stats().Connected != 0 {
		t.Fatal("disconnect not reflected")
	}
}

func TestExportImportMigration(t *testing.T) {
	src := newTestHub(t, rms.NewMemStore("src", 0), nil)
	dst := newTestHub(t, rms.NewMemStore("dst", 0), nil)
	// Give the destination unrelated prior traffic so the imported
	// entries must be re-sequenced onto its local seq space.
	mustEnqueue(t, dst, "alice", KindStatus, "ag-0", "status:ag-0", "old")

	mustEnqueue(t, src, "alice", KindResult, "ag-1", "result:ag-1", "r1")
	mustEnqueue(t, src, "alice", KindResult, "ag-2", "result:ag-2", "r2")

	exported := src.Export("alice")
	if len(exported) != 2 {
		t.Fatalf("export = %d entries, want 2", len(exported))
	}
	n, err := dst.Import("alice", exported)
	if err != nil || n != 2 {
		t.Fatalf("import = %d, %v; want 2, nil", n, err)
	}
	// Re-pulling the same export is idempotent (ack to the source was
	// lost, the edge pulls again).
	if n, _ := dst.Import("alice", exported); n != 0 {
		t.Fatalf("re-import adopted %d entries, want 0", n)
	}
	// The source retires the migrated entries only on ack.
	if src.Pending("alice") != 2 {
		t.Fatal("source dropped entries before the ack")
	}
	if _, err := src.Ack("alice", exported[len(exported)-1].Seq); err != nil {
		t.Fatal(err)
	}
	if src.Pending("alice") != 0 {
		t.Fatal("source kept entries after the ack")
	}

	entries, watermark, _, _ := dst.Poll("alice", 0, 0)
	if len(entries) != 3 || watermark != 3 {
		t.Fatalf("destination has %d entries wm %d, want 3/3", len(entries), watermark)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("imported entries not re-sequenced: %+v", entries)
		}
	}
}

func TestEntriesWireRoundTrip(t *testing.T) {
	in := []*Entry{
		{Seq: 3, Kind: KindResult, AgentID: "ag-1", EventID: "result:ag-1",
			Body: []byte(`<result-document agent="ag-1"/>`), Enqueued: time.Unix(12, 34)},
		{Seq: 5, Kind: KindStatus, AgentID: "ag-2", EventID: "status:ag-2", Body: []byte("disposed & gone")},
	}
	doc := EncodeEntries("alice", in, 5, 7)
	dev, out, watermark, evicted, token, _, err := ParseEntries(doc)
	if err != nil {
		t.Fatal(err)
	}
	if dev != "alice" || watermark != 5 || evicted != 7 || len(out) != 2 || token != "" {
		t.Fatalf("decoded dev %q wm %d ev %d n %d tok %q", dev, watermark, evicted, len(out), token)
	}
	// Export documents additionally carry the access token and the
	// enqueue times (the device's document has none).
	_, exported, _, _, token, _, err := ParseEntries(EncodeExport("alice", in, 5, "tok-1", ""))
	if err != nil || token != "tok-1" {
		t.Fatalf("export token = %q, %v", token, err)
	}
	for i := range in {
		if out[i].Seq != in[i].Seq || out[i].Kind != in[i].Kind ||
			out[i].AgentID != in[i].AgentID || out[i].EventID != in[i].EventID ||
			string(out[i].Body) != string(in[i].Body) {
			t.Fatalf("entry %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	if !out[0].Enqueued.IsZero() {
		t.Fatalf("device document carried enqueue time %v", out[0].Enqueued)
	}
	if !exported[0].Enqueued.Equal(in[0].Enqueued) {
		t.Fatalf("export lost the enqueue time: %v vs %v", exported[0].Enqueued, in[0].Enqueued)
	}
}

// TestConcurrentEnqueuePollEvict is the -race drill: many producers,
// one draining consumer per device, TTL sweeps and stats reads all at
// once, with a quota small enough to force concurrent eviction. Every
// delivered seq must be strictly increasing per device (no dup, no
// reorder), and accounting must balance.
func TestConcurrentEnqueuePollEvict(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), func(c *Config) { c.Quota = 8 })
	const devices = 4
	const perProducer = 50

	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%d", d)
		for p := 0; p < 2; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					event := fmt.Sprintf("result:%s-%d-%d", dev, p, i)
					if _, _, err := h.Enqueue(dev, KindResult, "ag", event, []byte("r")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			deadline := time.After(5 * time.Second)
			for {
				entries, watermark, _, err := h.Poll(dev, cursor, 4)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					if e.Seq <= cursor {
						t.Errorf("%s: duplicate or reordered seq %d after cursor %d", dev, e.Seq, cursor)
						return
					}
					cursor = e.Seq
				}
				cursor = watermark
				if cursor >= 2*perProducer {
					// Producers are done once every seq was assigned;
					// anything not delivered was evicted (counted).
					return
				}
				if len(entries) == 0 {
					select {
					case <-h.Wait(dev):
					case <-deadline:
						t.Errorf("%s: drain stalled at cursor %d", dev, cursor)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				h.SweepExpired()
				h.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)

	st := h.Stats()
	if st.Enqueued != devices*2*perProducer {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, devices*2*perProducer)
	}
	if st.Delivered+st.EvictedQuota+st.EvictedTTL+uint64(st.Pending) != st.Enqueued {
		t.Fatalf("accounting leak: %+v", st)
	}
}

// TestStaleCursorCannotDestroyMail: an ack watermark beyond anything
// this mailbox ever assigned (a device cursor from a previous mailbox
// generation, e.g. after a gateway lost a volatile store) must be
// ignored, not clamped — clamping would delete mail the device never
// saw.
func TestStaleCursorCannotDestroyMail(t *testing.T) {
	h := newTestHub(t, rms.NewMemStore("mb", 0), nil)
	mustEnqueue(t, h, "d", KindResult, "ag-1", "result:ag-1", "r1")
	mustEnqueue(t, h, "d", KindStatus, "ag-2", "status:ag-2", "s1")

	entries, watermark, _, err := h.Poll("d", 50, 0) // stale cursor from another life
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("stale ack destroyed mail: %d entries left, want 2", len(entries))
	}
	if watermark != 2 {
		t.Fatalf("watermark = %d, want 2", watermark)
	}
	// The real current watermark still acks normally.
	if n, _ := h.Ack("d", 2); n != 2 {
		t.Fatalf("valid ack retired %d, want 2", n)
	}
}

// TestDedupWindowScalesWithQuota: with a quota above the base dedup
// window, a still-pending entry must never fall out of its own dedup
// memory (or a retried relay would enqueue a second copy).
func TestDedupWindowScalesWithQuota(t *testing.T) {
	const quota = dedupWindow + 64
	h := newTestHub(t, rms.NewMemStore("mb", 0), func(c *Config) { c.Quota = quota })
	for i := 0; i < quota; i++ {
		mustEnqueue(t, h, "d", KindResult, "ag", fmt.Sprintf("result:ag-%d", i), "r")
	}
	// The oldest entry is still pending; its event id must still dedup.
	if _, dup, _ := h.Enqueue("d", KindResult, "ag", "result:ag-0", []byte("r")); !dup {
		t.Fatal("pending entry outlived its dedup memory: duplicate enqueued")
	}
	if h.Pending("d") != quota {
		t.Fatalf("pending = %d, want %d", h.Pending("d"), quota)
	}
}
