package rms

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"pdagent/internal/metrics"
)

// applyScript is a batch that touches every op kind, names an id it
// added itself, and ends on a delete: ids 1..2 must already be live.
func applyScript(next int) []Op {
	return []Op{
		{Op: OpAdd, Data: []byte("batch-add-a")},
		{Op: OpSet, ID: 1, Data: []byte("batch-set-1")},
		{Op: OpAdd, Data: []byte("batch-add-b")},
		{Op: OpSet, ID: next, Data: []byte("batch-set-own-add")},
		{Op: OpDelete, ID: 2},
	}
}

// TestWALStoreApplyOneFsync: a k-op Apply costs exactly one fsync under
// SyncGroup and none under SyncNever, and returns each op's record id.
func TestWALStoreApplyOneFsync(t *testing.T) {
	want := map[SyncPolicy]uint64{SyncGroup: 1, SyncNever: 0}
	for pol, fsyncs := range want {
		pol, fsyncs := pol, fsyncs
		t.Run(polNames[pol], func(t *testing.T) {
			s := openTestWAL(t, filepath.Join(t.TempDir(), "one.wal"), WALOptions{Sync: pol})
			defer s.Close()
			for _, rec := range []string{"one", "two"} {
				if _, err := s.Add([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			before, grouped := s.Fsyncs(), s.Stats().GroupedOps
			ids, err := s.Apply(applyScript(3))
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Fsyncs() - before; got != fsyncs {
				t.Fatalf("%d-op Apply cost %d fsyncs, want %d", len(ids), got, fsyncs)
			}
			if !reflect.DeepEqual(ids, []int{3, 1, 4, 3, 2}) {
				t.Fatalf("ids = %v, want [3 1 4 3 2]", ids)
			}
			if pol == SyncGroup {
				if got := s.Stats().GroupedOps - grouped; got != 5 {
					t.Fatalf("group commit acked %d ops, want all 5", got)
				}
			}
			assertWALState(t, "after Apply", s, map[int][]byte{
				1: []byte("batch-set-1"), 3: []byte("batch-set-own-add"), 4: []byte("batch-add-b"),
			})
			if ids, err := s.Apply(nil); err != nil || len(ids) != 0 || s.Fsyncs()-before != fsyncs {
				t.Fatalf("empty Apply: ids %v, err %v, %d fsyncs", ids, err, s.Fsyncs()-before)
			}
		})
	}
}

// TestWALStoreLogBytes: LogBytes advances by exactly the frames an
// Apply appends — a 13-byte header per op plus its payload, none for a
// delete — and is exported as <prefix>_log_bytes.
func TestWALStoreLogBytes(t *testing.T) {
	s := openTestWAL(t, filepath.Join(t.TempDir(), "bytes.wal"), WALOptions{})
	defer s.Close()
	for _, rec := range []string{"one", "two"} {
		if _, err := s.Add([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().LogBytes
	if before != 2*entryHeaderSize+6 {
		t.Fatalf("two Adds of 3 bytes logged %d bytes, want %d", before, 2*entryHeaderSize+6)
	}
	script := applyScript(3)
	want := uint64(0)
	for _, op := range script {
		want += entryHeaderSize + uint64(len(op.payload()))
	}
	if want != 5*entryHeaderSize+11+11+11+17 {
		t.Fatalf("script frames sum to %d bytes", want)
	}
	if _, err := s.Apply(script); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LogBytes - before; got != want {
		t.Fatalf("Apply logged %d bytes, want %d", got, want)
	}
	if _, err := s.Apply([]Op{{Op: OpDelete, ID: 99}}); err == nil {
		t.Fatal("Apply of an unknown id succeeded")
	}
	if got := s.Stats().LogBytes - before; got != want {
		t.Fatalf("a refused batch logged %d bytes", got-want)
	}
	m := metrics.NewRegistry()
	s.RegisterMetrics(m, "test_wal", "test")
	out := m.AppendPrometheus(nil)
	if line := fmt.Sprintf("test_wal_log_bytes %d\n", before+want); !bytes.Contains(out, []byte(line)) {
		t.Fatalf("scrape lacks %q:\n%s", line, out)
	}
}

// TestWALStoreApplyValidation: a batch with one bad op appends nothing —
// no frame, no id, no record, no fsync.
func TestWALStoreApplyValidation(t *testing.T) {
	s := openTestWAL(t, filepath.Join(t.TempDir(), "val.wal"), WALOptions{})
	defer s.Close()
	for _, rec := range []string{"one", "two"} {
		if _, err := s.Add([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	good := Op{Op: OpAdd, Data: []byte("rides along")}
	big := make([]byte, MaxRecordSize+1)
	for _, tc := range []struct {
		name     string
		notFound bool
		ops      []Op
	}{
		{"set of unknown id", true, []Op{good, {Op: OpSet, ID: 99, Data: []byte("x")}}},
		{"delete of unknown id", true, []Op{good, {Op: OpDelete, ID: 99}}},
		{"set of an id the batch adds later", true, []Op{{Op: OpSet, ID: 3, Data: []byte("x")}, good}},
		{"set after delete", true, []Op{good, {Op: OpDelete, ID: 1}, {Op: OpSet, ID: 1, Data: []byte("x")}}},
		{"delete after delete", true, []Op{{Op: OpDelete, ID: 2}, good, {Op: OpDelete, ID: 2}}},
		{"own add deleted twice", true, []Op{good, {Op: OpDelete, ID: 3}, {Op: OpDelete, ID: 3}}},
		{"oversize add", false, []Op{good, {Op: OpAdd, Data: big}}},
		{"oversize set", false, []Op{good, {Op: OpSet, ID: 1, Data: big}}},
		{"unknown opcode", false, []Op{good, {Op: 9, ID: 1}}},
	} {
		off, lsn, fsyncs := s.segOff, s.lsn, s.Fsyncs()
		ids, err := s.Apply(tc.ops)
		if err == nil || ids != nil || errors.Is(err, ErrNotFound) != tc.notFound {
			t.Fatalf("%s: Apply = %v, %v; want a rejection (ErrNotFound: %v)", tc.name, ids, err, tc.notFound)
		}
		next, _ := s.NextID()
		n, _ := s.NumRecords()
		if next != 3 || n != 2 || s.segOff != off || s.lsn != lsn || s.Fsyncs() != fsyncs {
			t.Fatalf("%s: rejected batch left a mark: next %d, %d records, segment %d→%d bytes, lsn %d→%d, fsyncs %d→%d",
				tc.name, next, n, off, s.segOff, lsn, s.lsn, fsyncs, s.Fsyncs())
		}
	}
	assertWALState(t, "after rejections", s, map[int][]byte{1: []byte("one"), 2: []byte("two")})
}

// TestWALStoreApplyRotation: a batch that crosses segment boundaries in
// its middle still lands whole, in order, behind one commit.
func TestWALStoreApplyRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rot.wal")
	opts := WALOptions{SegmentBytes: 128, CompactGarbage: 1 << 30}
	s := openTestWAL(t, dir, opts)
	var ops []Op
	want := map[int][]byte{}
	for i := 0; i < 12; i++ {
		data := []byte(fmt.Sprintf("rot-%02d-%s", i, bytes.Repeat([]byte{'r'}, 40)))
		ops = append(ops, Op{Op: OpAdd, Data: data})
		want[i+1] = data
	}
	ops = append(ops, Op{Op: OpDelete, ID: 5}, Op{Op: OpSet, ID: 6, Data: []byte("six")})
	delete(want, 5)
	want[6] = []byte("six")
	seg := s.Stats().Segments
	if _, err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Segments; got < seg+3 {
		t.Fatalf("batch did not rotate mid-way: segment %d → %d", seg, got)
	}
	assertWALState(t, "live", s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestWAL(t, dir, opts)
	defer re.Close()
	assertWALState(t, "reopened", re, want)
}

// TestWALStoreApplyTap: the commit tap sees a batch as the same per-op
// CommitOps single calls would have produced — once, in order, with
// the allocated ids.
func TestWALStoreApplyTap(t *testing.T) {
	s := openTestWAL(t, filepath.Join(t.TempDir(), "tap.wal"), WALOptions{})
	defer s.Close()
	for _, rec := range []string{"one", "two"} {
		if _, err := s.Add([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	c := &collectSink{}
	s.SetCommitSink(c.sink)
	if _, err := s.Apply(applyScript(3)); err != nil {
		t.Fatal(err)
	}
	want := []CommitOp{
		{Op: OpAdd, ID: 3, Data: []byte("batch-add-a")},
		{Op: OpSet, ID: 1, Data: []byte("batch-set-1")},
		{Op: OpAdd, ID: 4, Data: []byte("batch-add-b")},
		{Op: OpSet, ID: 3, Data: []byte("batch-set-own-add")},
		{Op: OpDelete, ID: 2},
	}
	if got := c.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tap saw %+v\nwant     %+v", got, want)
	}
}

// TestWALStoreApplyMatchesOtherStores drives every Store
// implementation (and a tapped MemStore) with one script of single ops, batches and rejected
// batches: same ids, same errors, same live set.
func TestWALStoreApplyMatchesOtherStores(t *testing.T) {
	tapped := &collectSink{}
	tappedMem := NewMemStore("eq", 0)
	tappedMem.SetCommitSink(tapped.sink)
	stores := map[string]Store{
		"mem":    NewMemStore("eq", 0),
		"wal":    openTestWAL(t, filepath.Join(t.TempDir(), "eq.wal"), WALOptions{SegmentBytes: 256}),
		"tapped": tappedMem,
	}
	type outcome struct {
		IDs  [][]int
		Errs []bool
		Live map[int]string
		Next int
	}
	results := map[string]outcome{}
	for name, s := range stores {
		var out outcome
		apply := func(ops ...Op) {
			ids, err := s.Apply(ops)
			out.IDs = append(out.IDs, ids)
			out.Errs = append(out.Errs, err != nil)
		}
		for _, rec := range []string{"one", "two"} {
			if _, err := s.Add([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		apply(applyScript(3)...)
		apply(Op{Op: OpAdd, Data: []byte("lost")}, Op{Op: OpSet, ID: 2, Data: []byte("deleted above")})
		apply()
		if err := s.Delete(4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		apply(Op{Op: OpDelete, ID: 4})
		apply(Op{Op: OpAdd, Data: []byte("tombstone")}, Op{Op: OpDelete, ID: 1})
		apply(Op{Op: OpSet, ID: 3, Data: []byte("cursor")}, Op{Op: OpDelete, ID: 5}, Op{Op: OpAdd, Data: nil})
		out.Live = map[int]string{}
		ids, _ := s.IDs()
		for _, id := range ids {
			data, _ := s.Get(id)
			out.Live[id] = string(data)
		}
		out.Next, _ = s.NextID()
		results[name] = out
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if _, err := s.Apply([]Op{{Op: OpAdd}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: Apply after Close = %v, want ErrClosed", name, err)
		}
	}
	want := outcome{
		IDs:  [][]int{{3, 1, 4, 3, 2}, nil, {}, nil, {5, 1}, {3, 5, 6}},
		Errs: []bool{false, true, false, true, false, false},
		Live: map[int]string{3: "cursor", 6: ""},
		Next: 7,
	}
	for name, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverges:\n got %+v\nwant %+v", name, got, want)
		}
	}
	// 2 adds + 5 + 1 delete + 2 + 3: every accepted op, nothing from the
	// rejected batches.
	if got := len(tapped.snapshot()); got != 13 {
		t.Errorf("tapped store emitted %d ops, want 13", got)
	}
}

// TestMemStoreApplyCapacity: a capacity-bounded MemStore refuses a
// batch whole when any prefix of it would overflow.
func TestMemStoreApplyCapacity(t *testing.T) {
	s := NewMemStore("cap", 10)
	if _, err := s.Add([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	// Ends at 8 bytes but passes through 11.
	_, err := s.Apply([]Op{{Op: OpAdd, Data: []byte("678901")}, {Op: OpDelete, ID: 1}, {Op: OpAdd, Data: []byte("ab")}})
	if !errors.Is(err, ErrStoreFull) {
		t.Fatalf("overflowing batch: %v, want ErrStoreFull", err)
	}
	if n, _ := s.NumRecords(); n != 1 {
		t.Fatalf("refused batch left %d records", n)
	}
	// The same ops in an order whose every prefix fits.
	ids, err := s.Apply([]Op{{Op: OpDelete, ID: 1}, {Op: OpAdd, Data: []byte("678901")}, {Op: OpSet, ID: 2, Data: []byte("6789012345")}})
	if err != nil || !reflect.DeepEqual(ids, []int{1, 2, 2}) {
		t.Fatalf("fitting batch: ids %v, err %v", ids, err)
	}
}

// TestWALStoreApplyConcurrentBatchesStayWhole is the concurrency
// contract, run under -race in CI: writers commit batches at once over
// tiny segments and a slow fsync (so rotations meet in-flight commits),
// and the log — read off the commit tap — still holds every batch's
// frames back to back, in order, with the ids Apply returned.
func TestWALStoreApplyConcurrentBatchesStayWhole(t *testing.T) {
	const writers, batches, perBatch = 8, 20, 3
	s, err := OpenWALStore(filepath.Join(t.TempDir(), "conc.wal"), WALOptions{
		SegmentBytes: 512, CompactGarbage: 1 << 30,
		fs: &slowSyncFS{walFS: osFS{}, delay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &collectSink{}
	s.SetCommitSink(c.sink)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var ops []Op
				for i := 0; i < perBatch; i++ {
					ops = append(ops, Op{Op: OpAdd, Data: []byte(fmt.Sprintf("w%d-b%d-%d", w, b, i))})
				}
				ids, err := s.Apply(ops)
				if err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
				for i := range ids {
					if got, _ := s.Get(ids[i]); !bytes.Equal(got, ops[i].Data) {
						t.Errorf("writer %d batch %d: id %d holds %q, want %q", w, b, ids[i], got, ops[i].Data)
					}
				}
			}
		}()
	}
	wg.Wait()
	ops := c.snapshot()
	if len(ops) != writers*batches*perBatch {
		t.Fatalf("tap saw %d ops, want %d", len(ops), writers*batches*perBatch)
	}
	for i := 0; i < len(ops); i += perBatch {
		head := string(ops[i].Data)
		for j := 0; j < perBatch; j++ {
			want := fmt.Sprintf("%s%d", head[:len(head)-1], j)
			if string(ops[i+j].Data) != want || ops[i+j].ID != ops[i].ID+j {
				t.Fatalf("log position %d: %q (id %d) interleaves the batch that starts %q (id %d)",
					i+j, ops[i+j].Data, ops[i+j].ID, head, ops[i].ID)
			}
		}
	}
	if got := s.Fsyncs(); got >= uint64(len(ops)) {
		t.Fatalf("%d fsyncs for %d ops in %d batches", got, len(ops), writers*batches)
	}
}
