package rms

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// collectSink gathers every op a tap emits, guarding against the
// concurrent sink leaders of the WAL tap.
type collectSink struct {
	mu  sync.Mutex
	ops []CommitOp
}

func (c *collectSink) sink(ops []CommitOp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, op := range ops {
		cp := op
		cp.Data = append([]byte(nil), op.Data...)
		c.ops = append(c.ops, cp)
	}
}

func (c *collectSink) snapshot() []CommitOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CommitOp(nil), c.ops...)
}

// replay applies the collected ops to a fresh MemStore — what a
// standby replica does with the stream.
func (c *collectSink) replay(t *testing.T) *MemStore {
	t.Helper()
	replica := NewMemStore("replica", 0)
	for _, op := range c.snapshot() {
		var err error
		switch op.Op {
		case OpAdd:
			_, err = replica.Add(op.Data)
		case OpSet:
			err = replica.Set(op.ID, op.Data)
		case OpDelete:
			err = replica.Delete(op.ID)
		}
		if err != nil {
			t.Fatalf("replaying %d on %d: %v", op.Op, op.ID, err)
		}
	}
	return replica
}

func TestWALStoreCommitTapOrdersAndCovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStore(dir, WALOptions{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &collectSink{}
	s.SetCommitSink(c.sink)

	// Concurrent committers: the tap must emit every op exactly once,
	// and in an order that replays to the same live set.
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := s.Add([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				if i%5 == 0 {
					if err := s.Set(id, []byte("updated")); err != nil {
						t.Errorf("set: %v", err)
					}
				}
				if i%7 == 0 {
					if err := s.Delete(id); err != nil {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	replica := c.replay(t)
	wantIDs, _ := s.IDs()
	gotIDs, _ := replica.IDs()
	if len(wantIDs) != len(gotIDs) {
		t.Fatalf("replica has %d records, primary %d", len(gotIDs), len(wantIDs))
	}
	for i, id := range wantIDs {
		if gotIDs[i] != id {
			t.Fatalf("replica id set diverges at %d: %d vs %d", i, gotIDs[i], id)
		}
		want, _ := s.Get(id)
		got, _ := replica.Get(id)
		if string(want) != string(got) {
			t.Fatalf("record %d: replica %q, primary %q", id, got, want)
		}
	}
}

// TestWALStoreTapTrailingRidesNextCommit: a trailing op is not durable
// when ApplyTrailing returns, so the tap must not have seen it; it
// reaches the sink with the commit that covers it, after that fsync, in
// log order ahead of the op that was waited for.
func TestWALStoreTapTrailingRidesNextCommit(t *testing.T) {
	s, err := OpenWALStore(t.TempDir(), WALOptions{trailingBound: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &collectSink{}
	var fsyncsAtEmit []uint64
	s.SetCommitSink(func(ops []CommitOp) {
		fsyncsAtEmit = append(fsyncsAtEmit, s.Fsyncs())
		c.sink(ops)
	})
	if _, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("tomb")}, {Op: OpAdd, Data: []byte("tomb2")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyTrailing([]Op{{Op: OpDelete, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("tap saw %d op(s) no fsync has covered: %+v", len(got), got)
	}
	if _, err := s.Add([]byte("waited")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range c.snapshot() {
		got = append(got, fmt.Sprintf("%d:%d:%s", op.Op, op.ID, op.Data))
	}
	want := []string{
		fmt.Sprintf("%d:1:tomb", OpAdd), fmt.Sprintf("%d:2:tomb2", OpAdd),
		fmt.Sprintf("%d:1:", OpDelete), fmt.Sprintf("%d:3:waited", OpAdd),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tap saw %v, want %v", got, want)
	}
	if len(fsyncsAtEmit) != 1 || fsyncsAtEmit[0] != 1 {
		t.Fatalf("sink called %d time(s) at fsync counts %v, want once, after the one fsync that covered all four ops", len(fsyncsAtEmit), fsyncsAtEmit)
	}
}

func TestWALStoreTapSkipsPreAttachOps(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStore(dir, WALOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Add([]byte("before")); err != nil {
		t.Fatal(err)
	}
	c := &collectSink{}
	s.SetCommitSink(c.sink)
	if _, err := s.Add([]byte("after")); err != nil {
		t.Fatal(err)
	}
	ops := c.snapshot()
	if len(ops) != 1 || string(ops[0].Data) != "after" {
		t.Fatalf("tap saw %d ops (want just the post-attach add): %+v", len(ops), ops)
	}
}

// TestMemStoreTapEmitsInOrder: a MemStore's tap sees every accepted
// mutation made after it was attached — once, in application order,
// with the allocated ids — and nothing from a rejected batch; and a
// sink parked on a round trip holds up writers only, never a reader.
func TestMemStoreTapEmitsInOrder(t *testing.T) {
	s := NewMemStore("t", 0)
	if _, err := s.Add([]byte("before")); err != nil {
		t.Fatal(err)
	}
	c := &collectSink{}
	s.SetCommitSink(c.sink)
	id, err := s.Add([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(id, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Op: OpAdd, Data: []byte("lost")}, {Op: OpSet, ID: 99}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bad batch err = %v, want ErrNotFound", err)
	}
	ids, err := s.Apply([]Op{{Op: OpAdd, Data: []byte("c")}, {Op: OpDelete, ID: id}})
	if err != nil {
		t.Fatal(err)
	}
	want := []CommitOp{
		{Op: OpAdd, ID: 2, Data: []byte("a")},
		{Op: OpSet, ID: 2, Data: []byte("b")},
		{Op: OpAdd, ID: ids[0], Data: []byte("c")},
		{Op: OpDelete, ID: 2},
	}
	if got := c.snapshot(); ids[0] != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("tap saw %+v\nwant     %+v", got, want)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	s.SetCommitSink(func([]CommitOp) {
		close(entered)
		<-release
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Add([]byte("parked"))
		done <- err
	}()
	<-entered
	// The write is applied and its sink is mid round trip: reads go on.
	if got, err := s.Get(4); err != nil || string(got) != "parked" {
		t.Fatalf("Get behind a parked sink = %q, %v", got, err)
	}
	if live, err := s.IDs(); err != nil || !reflect.DeepEqual(live, []int{1, 3, 4}) {
		t.Fatalf("IDs behind a parked sink = %v, %v", live, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNewMemStoreFromRaisesNextID(t *testing.T) {
	s := NewMemStoreFrom("m", 2, map[int][]byte{5: []byte("x"), 2: []byte("y")})
	next, _ := s.NextID()
	if next != 6 {
		t.Fatalf("NextID %d, want 6 (past highest record)", next)
	}
	got, err := s.Get(5)
	if err != nil || string(got) != "x" {
		t.Fatalf("Get(5) = %q, %v", got, err)
	}
}

func TestWALStoreErrSurfacesWedge(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStore(dir, WALOptions{fs: &errSyncFS{walFS: osFS{}, fuse: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatalf("healthy store reports %v", s.Err())
	}
	if _, err := s.Add([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]byte("x")); err == nil {
		t.Fatal("Add after fsync failure should error")
	}
	if err := s.Err(); !errors.Is(err, ErrWedged) {
		t.Fatalf("Err() = %v, want ErrWedged", err)
	}
}
