package push

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pdagent/internal/rms"
	"pdagent/internal/tenant"
)

func openWAL(t *testing.T, dir string, opts rms.WALOptions) *rms.WALStore {
	t.Helper()
	s, err := rms.OpenWALStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestEnqueueAckFsyncBudget pins the ordered-commit counts over a real
// group-commit WAL: an enqueue (entry + meta) is one fsync whether the
// meta record is new or rewritten, and an ack is one fsync however many
// entries it retires.
func TestEnqueueAckFsyncBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mbx.wal")
	wal := openWAL(t, dir, rms.WALOptions{})
	h := newTestHub(t, wal, nil)
	for i := 1; i <= 5; i++ {
		before := wal.Fsyncs()
		mustEnqueue(t, h, "alice", KindResult, fmt.Sprint("ag-", i), fmt.Sprint("result:ag-", i), "<r/>")
		if got := wal.Fsyncs() - before; got != 1 {
			t.Fatalf("enqueue %d cost %d fsyncs, want 1", i, got)
		}
	}
	before := wal.Fsyncs()
	if n, err := h.Ack("alice", 4); err != nil || n != 4 {
		t.Fatalf("Ack = %d, %v; want 4 retired", n, err)
	}
	if got := wal.Fsyncs() - before; got != 1 {
		t.Fatalf("ack of 4 entries cost %d fsyncs, want 1", got)
	}
	// What is on disk without any help from Close: the fifth entry and
	// the cursor.
	seg, _ := readFrames(t, dir)
	h2 := newTestHub(t, reopenCut(t, seg, len(seg)), nil)
	entries, _, _, _ := h2.Poll("alice", 0, 0)
	if len(entries) != 1 || entries[0].Seq != 5 {
		t.Fatalf("recovered copy offers %d entries (first %+v), want seq 5 only", len(entries), entries)
	}
}

// flakyStore fails Apply while broken and heals afterwards.
type flakyStore struct {
	rms.Store
	broken bool
}

func (s *flakyStore) Apply(ops []rms.Op) ([]int, error) {
	if s.broken {
		return nil, errors.New("injected store failure")
	}
	return s.Store.Apply(ops)
}

// TestFailedEnqueueLeavesNoTrace: an enqueue whose commit fails reports
// the failure and moves nothing in memory — not the seq, the dedup
// window, the byte ledgers or the pending gauge — so the same event is
// judged afresh (not refused as a duplicate) when it is retried.
func TestFailedEnqueueLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		// open returns the hub's store, how to break it and, when the
		// store can recover, how to heal it.
		open func(t *testing.T) (store rms.Store, breakIt, heal func())
		is   error
	}{
		{name: "closed WAL", is: rms.ErrClosed, open: func(t *testing.T) (rms.Store, func(), func()) {
			wal := openWAL(t, filepath.Join(t.TempDir(), "mbx.wal"), rms.WALOptions{})
			return wal, func() { wal.Close() }, nil
		}},
		{name: "wedged WAL", is: rms.ErrWedged, open: func(t *testing.T) (rms.Store, func(), func()) {
			// One-byte segments rotate before every append; with the
			// directory gone the rotation cannot create the next segment,
			// which wedges the store before a frame of the batch is written.
			dir := filepath.Join(t.TempDir(), "mbx.wal")
			wal := openWAL(t, dir, rms.WALOptions{SegmentBytes: 1})
			return wal, func() { os.RemoveAll(dir) }, nil
		}},
		{name: "store that heals", open: func(t *testing.T) (rms.Store, func(), func()) {
			s := &flakyStore{Store: rms.NewMemStore("mb", 0)}
			return s, func() { s.broken = true }, func() { s.broken = false }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, breakIt, heal := tc.open(t)
			h := newTestHub(t, store, nil)
			h.SetTenant("alice", "acme")
			mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "first")
			type ledger struct {
				Pending  int
				Bytes    map[string]int64
				Stats    Stats
				Records  int
				NextSeq  uint64
				MetaRec  int
				DedupIDs int
			}
			mb, _ := h.lookup("alice")
			read := func() ledger {
				n, _ := store.NumRecords()
				l := ledger{Pending: h.Pending("alice"), Bytes: h.BytesByTenant(), Stats: h.Stats(), Records: n}
				mb.mu.Lock()
				defer mb.mu.Unlock()
				l.NextSeq, l.MetaRec, l.DedupIDs = mb.nextSeq, mb.metaRec, len(mb.dedup)
				return l
			}
			before := read()
			if before.Pending != 1 || before.Bytes[tenant.Label("acme")] != 5 || before.Stats.DedupIDs != 1 {
				t.Fatalf("unexpected ledger before the failure: %+v", before)
			}

			breakIt()
			for try := 0; try < 2; try++ { // the second try meets the sticky failure
				seq, dup, err := h.Enqueue("alice", KindResult, "ag-2", "result:ag-2", []byte("second"))
				if err == nil || dup || seq != 0 {
					t.Fatalf("try %d: Enqueue over a failing store = %d, %v, %v; want an error", try, seq, dup, err)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("try %d: err = %v, want %v", try, err, tc.is)
				}
				after := read()
				if tc.name != "store that heals" {
					after.Records = before.Records // a closed or removed store cannot be counted
				}
				if !reflect.DeepEqual(after, before) {
					t.Fatalf("try %d: failed enqueue left a trace:\n after %+v\nbefore %+v", try, after, before)
				}
			}
			select {
			case <-h.Wait("alice"):
			default:
				t.Fatal("pending mail no longer signalled after the failed enqueue")
			}
			if heal == nil {
				return
			}
			heal()
			if seq := mustEnqueue(t, h, "alice", KindResult, "ag-2", "result:ag-2", "second"); seq != 2 {
				t.Fatalf("retried event got seq %d, want 2 (no seq burned by the failures)", seq)
			}
			if _, dup, _ := h.Enqueue("alice", KindResult, "ag-2", "result:ag-2", []byte("second")); !dup {
				t.Fatal("event accepted twice after the retry")
			}
		})
	}
}

// walFrame is one entry frame of a WAL segment (rms/log.go: op u8,
// id u32, size u32, crc u32, payload) and the offset just past it.
type walFrame struct {
	op      byte
	id      int
	payload []byte
	end     int
}

const walMagicLen = len("PDWALSEG1\n")

// readFrames returns the only segment of the WAL in dir and its frames.
func readFrames(t *testing.T, dir string) ([]byte, []walFrame) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment in %s, got %v (%v)", dir, segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var frames []walFrame
	for off := walMagicLen; off < len(seg); {
		end := off + 13 + int(binary.BigEndian.Uint32(seg[off+5:off+9]))
		if end > len(seg) {
			t.Fatalf("segment ends inside the frame at %d", off)
		}
		frames = append(frames, walFrame{seg[off], int(binary.BigEndian.Uint32(seg[off+1 : off+5])), seg[off+13 : end], end})
		off = end
	}
	return seg, frames
}

// reopenCut opens a WAL holding the first cut bytes of seg: what a
// crash that kept exactly that much of the log leaves for recovery.
func reopenCut(t *testing.T, seg []byte, cut int) *rms.WALStore {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cut.wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), seg[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return openWAL(t, dir, rms.WALOptions{})
}

// TestHubRecoversEveryFramePrefix cuts the log of a scripted enqueue /
// ack / enqueue history at EVERY frame boundary — every state an
// ordered commit can leave behind, mid-batch ones included — and
// reopens a hub over each: nothing at or below the durable cursor
// resurfaces, nothing above it is lost, no seq is handed out twice, and
// every event whose entry frame survived is still refused as a
// duplicate. The history ends with a long-poll's staged ack folded into
// the next enqueue's commit; a crash anywhere in that batch leaves a
// mailbox that the device's re-sent ack empties.
func TestHubRecoversEveryFramePrefix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mbx.wal")
	h := newTestHub(t, openWAL(t, dir, rms.WALOptions{}), nil)
	h.Touch("alice")
	event := func(i int) string { return fmt.Sprint("result:ag-", i) }
	enqueue := func(i int) { mustEnqueue(t, h, "alice", KindResult, fmt.Sprint("ag-", i), event(i), "<r/>") }
	ack := func(upTo uint64) {
		if _, err := h.Ack("alice", upTo); err != nil {
			t.Fatal(err)
		}
	}
	enqueue(1)
	enqueue(2)
	enqueue(3)
	ack(2)
	enqueue(4)
	ack(4)
	enqueue(5)
	const folded = 17 // frames[folded:] are the folded commit
	if _, _, _, err := h.PollStaged("alice", 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, frames := readFrames(t, dir); len(frames) != folded {
		t.Fatalf("the staged ack wrote %d frame(s) of its own", len(frames)-folded)
	}
	enqueue(6)
	seg, frames := readFrames(t, dir)
	// token + 5×(entry, meta) + (meta, 2 deletes) + (meta, 2 deletes)
	// + (meta, delete, entry, meta)
	if len(frames) != folded+4 {
		t.Fatalf("history wrote %d frames, want %d", len(frames), folded+4)
	}

	for k := 0; k <= len(frames); k++ {
		// The model: fold the surviving frames.
		live := map[int][]byte{}
		survived := map[string]bool{} // event ids whose entry frame is in the prefix
		var maxSeq uint64
		cut := walMagicLen
		for _, f := range frames[:k] {
			cut = f.end
			if f.op == rms.OpDelete {
				delete(live, f.id)
				continue
			}
			live[f.id] = f.payload
			if _, e, _, err := parseRecord(f.payload); err != nil {
				t.Fatal(err)
			} else if e != nil {
				survived[e.EventID] = true
				maxSeq = max(maxSeq, e.Seq)
			}
		}
		var cursor uint64
		var want []uint64 // seqs of live entries above the durable cursor
		for _, rec := range live {
			if _, _, meta, _ := parseRecord(rec); meta != nil {
				cursor = meta.cursor
			}
		}
		for id := 1; id <= len(frames); id++ {
			if _, e, _, _ := parseRecord(live[id]); e != nil && e.Seq > cursor {
				want = append(want, e.Seq)
			}
		}

		store := reopenCut(t, seg, cut)
		h2 := newTestHub(t, store, nil)
		entries, _, _, _ := h2.Poll("alice", 0, 0)
		var got []uint64
		for _, e := range entries {
			got = append(got, e.Seq)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut after frame %d (durable cursor %d): hub offers seqs %v, want %v", k, cursor, got, want)
		}
		if k >= folded {
			// The crash hit the folded commit; the device had acked 5 and
			// says so again. Entry 6 is offered iff its frame survived, and
			// once that is acked too nothing but the meta record is left.
			wantRest := 0
			if k >= folded+3 { // meta, delete, then the entry
				wantRest = 1
			}
			rest, watermark, _, _ := h2.Poll("alice", 5, 0)
			if len(rest) != wantRest || (wantRest == 1 && rest[0].Seq != 6) {
				t.Fatalf("cut after frame %d: re-sent ack=5 is answered with %d entries, want %d", k, len(rest), wantRest)
			}
			h2.Poll("alice", watermark, 0)
			if n, _ := store.NumRecords(); n != 1 || h2.Pending("alice") != 0 {
				t.Fatalf("cut after frame %d: %d record(s), %d pending after the re-sent acks, want the meta record alone", k, n, h2.Pending("alice"))
			}
			// Put the acked state aside: the checks below are about the
			// hub as the crash left it.
			h2 = newTestHub(t, reopenCut(t, seg, cut), nil)
		}
		for ev := range survived {
			if _, dup, err := h2.Enqueue("alice", KindResult, "ag-x", ev, []byte("again")); err != nil || !dup {
				t.Fatalf("cut after frame %d: event %s, whose entry frame survived, accepted again (dup %v, err %v)", k, ev, dup, err)
			}
		}
		if seq := mustEnqueue(t, h2, "alice", KindResult, "ag-new", "result:ag-new", "new"); seq <= maxSeq || seq <= cursor {
			t.Fatalf("cut after frame %d: fresh enqueue got seq %d; seqs up to %d were already handed out (cursor %d)", k, seq, maxSeq, cursor)
		}
	}
}

// TestStagedAck pins what PollStaged defers and what it does not: the
// ack is in force in memory at once, writes nothing, and is committed
// by whichever comes first of the next enqueue (folded: one fsync for
// both), a synchronous Poll or Ack, a sweep, and Close.
func TestStagedAck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit func(t *testing.T, h *Hub)
		folded bool
	}{
		{"enqueue", func(t *testing.T, h *Hub) { mustEnqueue(t, h, "alice", KindResult, "ag-3", "result:ag-3", "<r/>") }, true},
		{"poll", func(t *testing.T, h *Hub) { h.Poll("alice", 2, 0) }, false},
		{"ack", func(t *testing.T, h *Hub) { h.Ack("alice", 1) }, false},
		{"export", func(t *testing.T, h *Hub) { h.Export("alice") }, false},
		{"sweep", func(t *testing.T, h *Hub) { h.SweepExpired() }, false},
		{"close", func(t *testing.T, h *Hub) { h.Close() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "mbx.wal")
			wal := openWAL(t, dir, rms.WALOptions{})
			// No TTLs: the sweep has nothing to do but commit.
			h := newTestHub(t, wal, func(c *Config) { c.DedupTTL = -1 })
			h.SetTenant("alice", "acme")
			mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "12345")
			mustEnqueue(t, h, "alice", KindResult, "ag-2", "result:ag-2", "12345")

			before := wal.Fsyncs()
			entries, watermark, _, err := h.PollStaged("alice", 2, 0)
			if err != nil || len(entries) != 0 || watermark != 2 {
				t.Fatalf("PollStaged = %d entries, watermark %d, %v; want none, 2", len(entries), watermark, err)
			}
			if got := wal.Fsyncs() - before; got != 0 {
				t.Fatalf("staging the ack cost %d fsync(s)", got)
			}
			st := h.Stats()
			if st.Pending != 0 || st.Delivered != 2 || st.StagedAcks != 1 || st.AcksFolded+st.AcksFlushed != 0 ||
				h.Pending("alice") != 0 || len(h.BytesByTenant()) != 0 {
				t.Fatalf("staged ack not in force in memory: %+v, bytes %v", st, h.BytesByTenant())
			}
			if n, _ := wal.NumRecords(); n != 3 {
				t.Fatalf("store holds %d records with the ack staged, want both entries and the meta", n)
			}

			tc.commit(t, h)
			if got := wal.Fsyncs() - before; got != 1 {
				t.Fatalf("committing the staged ack by %s cost %d fsyncs, want 1", tc.name, got)
			}
			st = h.Stats()
			wantFolded, wantFlushed := uint64(0), uint64(1)
			if tc.folded {
				wantFolded, wantFlushed = 1, 0
			}
			if st.StagedAcks != 0 || st.AcksFolded != wantFolded || st.AcksFlushed != wantFlushed {
				t.Fatalf("after %s: %d staged, %d folded, %d flushed", tc.name, st.StagedAcks, st.AcksFolded, st.AcksFlushed)
			}
			// What is on disk without any help from the store's Close.
			seg, _ := readFrames(t, dir)
			h2 := newTestHub(t, reopenCut(t, seg, len(seg)), nil)
			for _, e := range h2.Export("alice") {
				if e.Seq <= 2 {
					t.Fatalf("acked entry %d is back after a reopen", e.Seq)
				}
			}
			if n, _ := h2.cfg.Store.NumRecords(); n != 1+h2.Pending("alice") {
				t.Fatalf("reopened store holds %d records for %d pending entries", n, h2.Pending("alice"))
			}
		})
	}
}

// TestStagedAckAfterCloseCommits: a long-poll that outlives Close (it
// was parked when the gateway began shutting down) must not leave its
// ack behind for a store that is about to be closed.
func TestStagedAckAfterCloseCommits(t *testing.T) {
	store := rms.NewMemStore("mb", 0)
	h := newTestHub(t, store, nil)
	mustEnqueue(t, h, "alice", KindResult, "ag-1", "result:ag-1", "<r/>")
	h.Close()
	if _, _, _, err := h.PollStaged("alice", 1, 0); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.StagedAcks != 0 || st.AcksFlushed != 1 {
		t.Fatalf("ack after Close: %d staged, %d flushed; want it committed", st.StagedAcks, st.AcksFlushed)
	}
	if n, _ := store.NumRecords(); n != 1 {
		t.Fatalf("store holds %d records, want the meta record alone", n)
	}
}
