package rms

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func openTestWAL(t *testing.T, dir string, opts WALOptions) *WALStore {
	t.Helper()
	s, err := OpenWALStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenWALStore(%s): %v", dir, err)
	}
	return s
}

func TestWALStoreBasic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "inbox.wal")
	s := openTestWAL(t, dir, WALOptions{})
	defer s.Close()

	if s.Name() != "inbox" {
		t.Fatalf("Name() = %q, want inbox", s.Name())
	}
	id1, err := s.Add([]byte("alpha"))
	if err != nil || id1 != 1 {
		t.Fatalf("Add: id=%d err=%v", id1, err)
	}
	id2, err := s.Add([]byte("beta"))
	if err != nil || id2 != 2 {
		t.Fatalf("Add: id=%d err=%v", id2, err)
	}
	if err := s.Set(id1, []byte("alpha2")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id1)
	if err != nil || !bytes.Equal(got, []byte("alpha2")) {
		t.Fatalf("Get(1) = %q, %v", got, err)
	}
	// Mutating the returned slice must not reach the store.
	got[0] = 'X'
	if again, _ := s.Get(id1); !bytes.Equal(again, []byte("alpha2")) {
		t.Fatal("Get returned an aliased slice")
	}
	if err := s.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) err = %v, want ErrNotFound", err)
	}
	if err := s.Set(99, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Set(99) err = %v, want ErrNotFound", err)
	}
	if err := s.Delete(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(99) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Add(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversize Add succeeded")
	}
	n, _ := s.NumRecords()
	next, _ := s.NextID()
	ids, _ := s.IDs()
	size, _ := s.Size()
	if n != 1 || next != 3 || len(ids) != 1 || ids[0] != 1 || size != len("alpha2") {
		t.Fatalf("n=%d next=%d ids=%v size=%d", n, next, ids, size)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Add(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close err = %v, want ErrClosed", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close err = %v, want ErrClosed", err)
	}
}

// TestWALStorePersistenceRotation drives enough traffic through tiny
// segments to force many rotations, then reopens and checks everything
// survived the full segment chain.
func TestWALStorePersistenceRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rot.wal")
	opts := WALOptions{SegmentBytes: 256, CompactGarbage: 1 << 30}
	s := openTestWAL(t, dir, opts)
	want := map[int][]byte{}
	for i := 0; i < 50; i++ {
		data := []byte(fmt.Sprintf("record-%02d-%s", i, strings.Repeat("x", i%7)))
		id, err := s.Add(data)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	for id := 2; id <= 50; id += 5 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(want, id)
	}
	for id := 1; id <= 50; id += 7 {
		if _, ok := want[id]; !ok {
			continue
		}
		data := []byte(fmt.Sprintf("updated-%02d", id))
		if err := s.Set(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}

	re := openTestWAL(t, dir, opts)
	defer re.Close()
	checkWALContents(t, re, want)
	next, _ := re.NextID()
	if next != 51 {
		t.Fatalf("NextID after reopen = %d, want 51", next)
	}
	// The reopened store must still be writable.
	if _, err := re.Add([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
}

func checkWALContents(t *testing.T, s *WALStore, want map[int][]byte) {
	t.Helper()
	n, err := s.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		ids, _ := s.IDs()
		t.Fatalf("NumRecords = %d, want %d (ids %v)", n, len(want), ids)
	}
	for id, data := range want {
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get(%d) = %q, %v; want %q", id, got, err, data)
		}
	}
}

// TestWALStoreSnapshotBoundsReplay churns records until auto-snapshot
// fires, then checks covered segments are pruned and a reopen sees the
// exact live set — recovery work bounded by live data, not history.
func TestWALStoreSnapshotBoundsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap.wal")
	opts := WALOptions{SegmentBytes: 512, CompactGarbage: 1024}
	s := openTestWAL(t, dir, opts)
	id, err := s.Add(bytes.Repeat([]byte{0xAB}, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Each Set supersedes the previous 100-byte payload; garbage crosses
	// the 1 KiB threshold fast and rotation fires the snapshot.
	var want []byte
	for i := 0; i < 60; i++ {
		want = []byte(fmt.Sprintf("gen-%03d-%s", i, strings.Repeat("y", 92)))
		if err := s.Set(id, want); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) == 0 {
		t.Fatalf("no snapshot written (garbage=%d)", s.Garbage())
	}
	// Segments below the snapshot base must be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) > 3 {
		t.Fatalf("replay not bounded: %d segments remain: %v", len(segs), segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestWAL(t, dir, opts)
	defer re.Close()
	checkWALContents(t, re, map[int][]byte{id: want})
	if re.Garbage() != 0 {
		// Post-snapshot garbage only — anything covered was reset.
		t.Logf("residual garbage after reopen: %d", re.Garbage())
	}
}

// TestWALStoreReplayLiveSet pins what a reopen recovers from a journal
// with the shape churn leaves behind — every record written once and
// overwritten once, so replay processes two ops per live record: the
// live set is exactly the records, each at its overwritten value. The
// write side runs unsynced; recovery does not depend on how the log was
// synced.
func TestWALStoreReplayLiveSet(t *testing.T) {
	sizes := []int{10_000, 50_000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	first, second := bytes.Repeat([]byte{'a'}, 256), bytes.Repeat([]byte{'b'}, 256)
	for _, n := range sizes {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("replay-%d.wal", n))
		s := openTestWAL(t, dir, WALOptions{Sync: SyncNever})
		want := make(map[int][]byte, n)
		for i := 0; i < n; i++ {
			id, err := s.Add(first)
			if err != nil {
				t.Fatal(err)
			}
			want[id] = second
		}
		for id := range want {
			if err := s.Set(id, second); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re := openTestWAL(t, dir, WALOptions{})
		checkWALContents(t, re, want)
		if size, err := re.Size(); err != nil || size != n*256 {
			t.Fatalf("records=%d: reopen recovered %d bytes (%v), want %d", n, size, err, n*256)
		}
		re.Close()
	}
}

// TestWALStoreCompactForced: explicit Compact prunes immediately even
// below the auto threshold.
func TestWALStoreCompactForced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cmp.wal")
	s := openTestWAL(t, dir, WALOptions{})
	want := map[int][]byte{}
	for i := 0; i < 10; i++ {
		id, err := s.Add([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = []byte(fmt.Sprintf("rec-%d", i))
	}
	for id := 1; id <= 5; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(want, id)
	}
	if g := s.Garbage(); g == 0 {
		t.Fatal("deletes produced no garbage accounting")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if g := s.Garbage(); g != 0 {
		t.Fatalf("garbage after Compact = %d, want 0", g)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("snapshots after Compact: %v", snaps)
	}
	// Store must stay writable across Compact, and everything must
	// survive a reopen from the snapshot.
	id, err := s.Add([]byte("post-compact"))
	if err != nil {
		t.Fatal(err)
	}
	want[id] = []byte("post-compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestWAL(t, dir, WALOptions{})
	defer re.Close()
	checkWALContents(t, re, want)
}

var polNames = map[SyncPolicy]string{SyncGroup: "group", SyncNever: "never"}

// TestWALStorePolicies: every sync policy must reach the same persisted
// state after a clean Close (Close fsyncs under all policies).
func TestWALStorePolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncGroup, SyncNever} {
		pol := pol
		t.Run(polNames[pol], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "pol.wal")
			s := openTestWAL(t, dir, WALOptions{Sync: pol})
			want := map[int][]byte{}
			for i := 0; i < 20; i++ {
				data := []byte(fmt.Sprintf("%s-%d", polNames[pol], i))
				id, err := s.Add(data)
				if err != nil {
					t.Fatal(err)
				}
				want[id] = data
			}
			if err := s.Delete(3); err != nil {
				t.Fatal(err)
			}
			delete(want, 3)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re := openTestWAL(t, dir, WALOptions{Sync: pol})
			defer re.Close()
			checkWALContents(t, re, want)
		})
	}
}

func TestWALStoreFsyncCounts(t *testing.T) {
	// One goroutine's ops arrive one after another, so SyncGroup pays
	// one fsync per op; SyncNever issues none on the write path. (Group
	// batching under contention is covered by
	// TestWALStoreGroupCommitBatches.)
	dir := filepath.Join(t.TempDir(), "grp.wal")
	s := openTestWAL(t, dir, WALOptions{})
	for i := 0; i < 10; i++ {
		if _, err := s.Add([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Fsyncs(); got != 10 {
		t.Fatalf("serial SyncGroup fsyncs = %d, want 10", got)
	}
	// Trailing appends pay nothing of their own: N of them and the waited
	// op behind them are one fsync, and the group it acks is N + 1 ops.
	const trailing = 7
	grouped := s.Stats().GroupedOps
	for i := 0; i < trailing; i++ {
		if _, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("t")}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Fsyncs != 10 || st.TrailingOps != trailing || st.TrailingUnsynced != trailing {
		t.Fatalf("after %d trailing appends: %+v, want no fsync and all of them un-synced", trailing, st)
	}
	if _, err := s.Add([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Fsyncs != 11 || st.GroupedOps-grouped != trailing+1 || st.TrailingUnsynced != 0 || st.TrailingSyncs != 0 {
		t.Fatalf("%d trailing + 1 waited: %+v, want 1 fsync acking %d ops and nothing left un-synced", trailing, st, trailing+1)
	}
	s.Close()

	dir2 := filepath.Join(t.TempDir(), "nev.wal")
	s2 := openTestWAL(t, dir2, WALOptions{Sync: SyncNever, CompactGarbage: 1 << 30})
	for i := 0; i < 10; i++ {
		if _, err := s2.Add([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.Fsyncs(); got != 0 {
		t.Fatalf("SyncNever write-path fsyncs = %d, want 0", got)
	}
	s2.Close()
}

// TestWALStoreTrailingSyncsItself: a store nobody writes to again syncs
// its trailing tail by itself once the bound has passed — the ops are on
// disk, the gauges say so — and Close syncs a tail younger than the
// bound; neither needs a caller.
func TestWALStoreTrailingSyncsItself(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idle.wal")
	s := openTestWAL(t, dir, WALOptions{trailingBound: 20 * time.Millisecond})
	c := &collectSink{}
	s.SetCommitSink(c.sink)
	if _, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("a")}, {Op: OpAdd, Data: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Fsyncs != 0 || st.TrailingUnsynced != 2 {
		t.Fatalf("right after the append: %+v, want nothing synced yet", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().TrailingUnsynced != 0 || len(c.snapshot()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("idle store never synced its trailing tail: %+v, sink saw %d op(s)", s.Stats(), len(c.snapshot()))
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Fsyncs != 1 || st.TrailingSyncs != 1 || st.GroupedOps != 2 {
		t.Fatalf("after the bound: %+v, want one self-started fsync covering both ops", st)
	}
	// What a kill now leaves on disk (the store is still open) has them.
	img := filepath.Join(t.TempDir(), "img.wal")
	if err := os.MkdirAll(img, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix)
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(img, seg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestWAL(t, img, WALOptions{})
	checkWALContents(t, re, map[int][]byte{1: []byte("a"), 2: []byte("b")})
	re.Close()

	// A covered tail arms nothing: a later expiry finds no work.
	if _, err := s.ApplyTrailing([]Op{{Op: OpDelete, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]byte("c")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if st := s.Stats(); st.Fsyncs != 2 || st.TrailingSyncs != 1 {
		t.Fatalf("a tail a waited commit covered was synced again: %+v", st)
	}
	// Under traffic the tail is only what was appended since the last
	// waited commit: it is never as old as the bound, and over several
	// bounds' worth of writes the store starts no fsync of its own.
	s3 := openTestWAL(t, filepath.Join(t.TempDir(), "busy.wal"), WALOptions{trailingBound: 150 * time.Millisecond})
	defer s3.Close()
	writes := uint64(0)
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); writes++ {
		if _, err := s3.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("retired")}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s3.Add([]byte("recorded")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s3.Stats(); st.TrailingSyncs != 0 || st.Fsyncs != writes {
		t.Fatalf("busy store: %+v after %d waited writes, want one fsync each and none started by the bound", st, writes)
	}
	// Close syncs a tail the bound has not reached, and hands it to the tap.
	s2 := openTestWAL(t, filepath.Join(t.TempDir(), "close.wal"), WALOptions{trailingBound: time.Hour})
	c2 := &collectSink{}
	s2.SetCommitSink(c2.sink)
	if _, err := s2.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("z")}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.TrailingUnsynced != 0 || st.TrailingSyncs != 0 || len(c2.snapshot()) != 1 {
		t.Fatalf("after Close: %+v, sink saw %d op(s); want the tail synced by Close, not by the bound", st, len(c2.snapshot()))
	}
}

// TestWALStoreTrailingConcurrent races trailing appenders, waited
// committers, the bound's timer (1 ms, so it fires throughout), rotation
// and Close: every op that returned is in the reopened store, and the
// gauges end at rest.
func TestWALStoreTrailingConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "race.wal")
	s := openTestWAL(t, dir, WALOptions{SegmentBytes: 2048, trailingBound: time.Millisecond})
	const writers, each = 4, 60
	var mu sync.Mutex
	want := map[int][]byte{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data := []byte(fmt.Sprintf("w%d-%d", w, i))
				var id int
				if i%5 == 4 {
					var err error
					if id, err = s.Add(data); err != nil {
						t.Errorf("Add: %v", err)
						return
					}
				} else {
					ids, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: data}})
					if err != nil {
						t.Errorf("ApplyTrailing: %v", err)
						return
					}
					id = ids[0]
				}
				mu.Lock()
				want[id] = data
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TrailingOps != writers*each*4/5 || st.TrailingUnsynced != 0 {
		t.Fatalf("after Close: %+v, want %d trailing ops, none un-synced", st, writers*each*4/5)
	}
	re := openTestWAL(t, dir, WALOptions{})
	defer re.Close()
	checkWALContents(t, re, want)
}

// TestWALStoreTrailingRefusedWhenWedgedOrClosed: a trailing append does
// not wait for the disk, but it still answers for the store's state.
func TestWALStoreTrailingRefusedWhenWedgedOrClosed(t *testing.T) {
	s, err := OpenWALStore(filepath.Join(t.TempDir(), "wedge.wal"), WALOptions{fs: &errSyncFS{walFS: osFS{}, fuse: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("rides the failing fsync")}}); err != nil {
		t.Fatalf("trailing append on a healthy store: %v", err)
	}
	if _, err := s.Add([]byte("x")); !errors.Is(err, ErrWedged) {
		t.Fatalf("Add over a failing fsync: err = %v, want the wedge", err)
	}
	if _, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("y")}}); !errors.Is(err, ErrWedged) {
		t.Fatalf("trailing append on a wedged store: err = %v, want the wedge", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("z")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("trailing append on a closed store: err = %v, want ErrClosed", err)
	}
	// An invalid trailing batch is refused whole, like a waited one.
	ok := openTestWAL(t, filepath.Join(t.TempDir(), "ok.wal"), WALOptions{})
	defer ok.Close()
	if _, err := ok.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("a")}, {Op: OpDelete, ID: 9}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("invalid trailing batch: err = %v, want ErrNotFound", err)
	}
	if n, _ := ok.NumRecords(); n != 0 || ok.Stats().TrailingOps != 0 {
		t.Fatalf("refused trailing batch left %d record(s), %d trailing op(s)", n, ok.Stats().TrailingOps)
	}
}

// TestQuickMemWALEquivalence drives MemStore and WALStore with the same
// random operation sequence and checks they stay observably identical
// (same structure as TestQuickMemFileEquivalence).
func TestQuickMemWALEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		ID   uint8
		Data []byte
	}
	f := func(ops []op) bool {
		mem := NewMemStore("m", 0)
		wal, err := OpenWALStore(
			filepath.Join(t.TempDir(), fmt.Sprintf("eq-%d.wal", rand.Int())),
			WALOptions{SegmentBytes: 512, trailingBound: time.Hour})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer wal.Close()
		for _, o := range ops {
			id := int(o.ID%16) + 1
			switch o.Kind % 6 {
			case 4, 5:
				// A batch of up to four ops drawn from the payload bytes,
				// waited for (4) or trailing (5): accepted or rejected
				// alike, with the same ids, and visible at once either way.
				var batch []Op
				for _, b := range o.Data[:min(len(o.Data), 4)] {
					batch = append(batch, Op{Op: OpAdd + b%3, ID: int(b>>2)%16 + 1, Data: o.Data})
				}
				apply := Store.Apply
				if o.Kind%6 == 5 {
					apply = Store.ApplyTrailing
				}
				m, e1 := apply(mem, batch)
				w, e2 := apply(wal, batch)
				if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(m, w) {
					return false
				}
			case 0:
				m, e1 := mem.Add(o.Data)
				w, e2 := wal.Add(o.Data)
				if (e1 == nil) != (e2 == nil) || m != w {
					return false
				}
			case 1:
				_, e1 := mem.Get(id)
				_, e2 := wal.Get(id)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			case 2:
				e1 := mem.Set(id, o.Data)
				e2 := wal.Set(id, o.Data)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			case 3:
				e1 := mem.Delete(id)
				e2 := wal.Delete(id)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			}
		}
		return sameContents(mem, wal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWALStorePersistenceProperty: random workload with random tiny
// segment/compaction settings, close, reopen — contents must match the
// in-memory model exactly. Exercises rotation and snapshot boundaries
// at many different offsets.
func TestWALStorePersistenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("p%d.wal", trial))
		opts := WALOptions{
			Sync:           SyncNever,
			SegmentBytes:   128 + r.Intn(2048),
			CompactGarbage: 64 + r.Intn(4096),
		}
		s := openTestWAL(t, dir, opts)
		model := map[int][]byte{}
		for i := 0; i < 300; i++ {
			switch r.Intn(3) {
			case 0:
				data := make([]byte, r.Intn(120))
				r.Read(data)
				id, err := s.Add(data)
				if err != nil {
					t.Fatal(err)
				}
				model[id] = data
			case 1:
				for id := range model {
					data := make([]byte, r.Intn(120))
					r.Read(data)
					if err := s.Set(id, data); err != nil {
						t.Fatal(err)
					}
					model[id] = data
					break
				}
			case 2:
				for id := range model {
					if err := s.Delete(id); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
					break
				}
			}
		}
		wantNext, _ := s.NextID()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re := openTestWAL(t, dir, opts)
		checkWALContents(t, re, model)
		if next, _ := re.NextID(); next != wantNext {
			t.Fatalf("trial %d: NextID = %d, want %d", trial, next, wantNext)
		}
		re.Close()
	}
}

// errSyncFS wedge-tests: a filesystem whose file Sync fails after a
// fuse burns down. The store must return the failure, stick it, and
// refuse all later writes rather than lying about durability.
type errSyncFS struct {
	walFS
	mu   sync.Mutex
	fuse int // Syncs remaining before failure
}

type errSyncFile struct {
	walFile
	fs *errSyncFS
}

func (fs *errSyncFS) Create(path string) (walFile, error) {
	f, err := fs.walFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &errSyncFile{f, fs}, nil
}

func (fs *errSyncFS) OpenAppend(path string) (walFile, int64, error) {
	f, size, err := fs.walFS.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	return &errSyncFile{f, fs}, size, nil
}

func (f *errSyncFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.fuse--
	if f.fs.fuse < 0 {
		return errors.New("injected fsync failure")
	}
	return f.walFile.Sync()
}

func TestWALStoreFsyncFailureWedges(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wedge.wal")
	s, err := OpenWALStore(dir, WALOptions{fs: &errSyncFS{walFS: osFS{}, fuse: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]byte("two")); err != nil {
		t.Fatal(err)
	}
	// Fuse burnt: this Add's fsync fails and must be reported.
	if _, err := s.Add([]byte("three")); err == nil {
		t.Fatal("Add with failing fsync succeeded")
	}
	// The failure is sticky — no later op may pretend to be durable.
	if _, err := s.Add([]byte("four")); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("Add after wedge err = %v, want sticky wedge", err)
	}
	if err := s.Set(1, []byte("x")); err == nil {
		t.Fatal("Set after wedge succeeded")
	}
	if err := s.Delete(1); err == nil {
		t.Fatal("Delete after wedge succeeded")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact after wedge succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close of wedged store: %v", err)
	}
	// The acked prefix is still recoverable.
	re := openTestWAL(t, dir, WALOptions{})
	defer re.Close()
	for _, id := range []int{1, 2} {
		if _, err := re.Get(id); err != nil {
			t.Fatalf("acked record %d lost after wedge: %v", id, err)
		}
	}
}

// slowSyncFS inflates fsync latency so concurrent committers pile onto
// the group-commit ticket.
type slowSyncFS struct {
	walFS
	delay time.Duration
}

type slowSyncFile struct {
	walFile
	delay time.Duration
}

func (fs *slowSyncFS) Create(path string) (walFile, error) {
	f, err := fs.walFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{f, fs.delay}, nil
}

func (fs *slowSyncFS) OpenAppend(path string) (walFile, int64, error) {
	f, size, err := fs.walFS.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	return &slowSyncFile{f, fs.delay}, size, nil
}

func (f *slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.walFile.Sync()
}

// TestWALStoreGroupCommitBatches is the concurrency contract, run
// under -race in CI: N writers hammer the store while fsync is slow;
// one fsync must ack many writers (far fewer fsyncs than ops), every
// write must be acked exactly once, and — checked by copying the live
// directory and recovering the copy — every acked write is on disk
// without any help from Close.
func TestWALStoreGroupCommitBatches(t *testing.T) {
	const writers, perWriter = 8, 25
	dir := filepath.Join(t.TempDir(), "grp.wal")
	s, err := OpenWALStore(dir, WALOptions{fs: &slowSyncFS{walFS: osFS{}, delay: 200 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	ids := make([][]int, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id, err := s.Add([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				ids[w] = append(ids[w], id)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	const ops = writers * perWriter
	if got := s.Fsyncs(); got >= ops/2 {
		t.Fatalf("group commit did not batch: %d fsyncs for %d ops", got, ops)
	} else {
		t.Logf("%d fsyncs for %d concurrent ops", got, ops)
	}
	seen := map[int]bool{}
	for w, list := range ids {
		if len(list) != perWriter {
			t.Fatalf("writer %d acked %d ops, want %d", w, len(list), perWriter)
		}
		for _, id := range list {
			if seen[id] {
				t.Fatalf("id %d acked twice", id)
			}
			seen[id] = true
		}
	}

	// Durability without Close: copy the directory out from under the
	// live store and recover the copy — every acked id must be there.
	copyDir := filepath.Join(t.TempDir(), "grp-copy.wal")
	if err := os.MkdirAll(copyDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re := openTestWAL(t, copyDir, WALOptions{})
	defer re.Close()
	n, _ := re.NumRecords()
	if n != ops {
		t.Fatalf("recovered copy has %d records, want %d acked", n, ops)
	}
	for id := range seen {
		if _, err := re.Get(id); err != nil {
			t.Fatalf("acked id %d missing from recovered copy: %v", id, err)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALStoreRefusesGappedLog: snapshot corrupted AND its covering
// history gone — the store must refuse to open rather than silently
// serve a partial state.
func TestWALStoreRefusesGappedLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gap.wal")
	opts := WALOptions{SegmentBytes: 256}
	s := openTestWAL(t, dir, opts)
	for i := 0; i < 30; i++ {
		if _, err := s.Add([]byte(strings.Repeat("z", 40))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot: %v %v", snaps, err)
	}
	for _, p := range snaps {
		if err := os.Truncate(p, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenWALStore(dir, opts); err == nil {
		t.Fatal("opened a log with a corrupt snapshot and missing history")
	} else if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("unexpected error: %v", err)
	}
}
