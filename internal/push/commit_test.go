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
// duplicate.
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
	seg, frames := readFrames(t, dir)
	// token + 5×(entry, meta) + (meta, 2 deletes) + (meta, 2 deletes)
	if len(frames) != 17 {
		t.Fatalf("history wrote %d frames, want 17", len(frames))
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

		h2 := newTestHub(t, reopenCut(t, seg, cut), nil)
		entries, _, _, _ := h2.Poll("alice", 0, 0)
		var got []uint64
		for _, e := range entries {
			got = append(got, e.Seq)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut after frame %d (durable cursor %d): hub offers seqs %v, want %v", k, cursor, got, want)
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
