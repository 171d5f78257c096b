package rms

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// This file is the crash-recovery property suite: a simulated
// filesystem (simFS) with a durable/volatile split per file AND per
// directory entry records a crash image after every mutating syscall
// the WAL issues. Each image is materialized into a real directory in
// several power-loss variants (nothing unsynced survived, everything
// survived, torn tails) and recovered with the real OpenWALStore. The
// invariant: under the default group-commit policy the recovered state
// is exactly the acked prefix of the workload, or that prefix plus a
// prefix of what was appended behind it — the trailing ops no waited
// call has covered yet, then the call in flight (its single op, or the
// first j ops of an Apply batch), in log order, never a gap. An op a
// waited call acknowledged may NEVER be missing, and a trailing op never
// survives without everything before it, at any crash point, in any
// variant.

// simInode is one file's content: data is what the process sees,
// synced is the prefix made durable by fsync.
type simInode struct {
	data   []byte
	synced int
}

// simFS implements walFS with explicit durability tracking. The live
// namespace is what the process sees; the durable namespace is the
// last directory state covered by SyncDir. File creates, renames and
// removes stay volatile until SyncDir copies live -> durable.
type simFS struct {
	live    map[string]*simInode
	durable map[string]*simInode
	images  []crashImage
	acked   int // ops a waited call has covered; bumped by the test between calls
	pending int // ops appended or about to be beyond acked: un-synced trailing ones + the call in flight
}

type crashFile struct {
	data   []byte
	synced int
}

// crashImage is the disk as a crash at this boundary could leave it.
type crashImage struct {
	acked   int
	pending int
	live    map[string]crashFile
	durable map[string][]byte // durable dirent -> fsynced content
}

func newSimFS() *simFS {
	return &simFS{
		live:    make(map[string]*simInode),
		durable: make(map[string]*simInode),
		pending: 1,
	}
}

// snap records a crash image at the current syscall boundary.
func (fs *simFS) snap() {
	img := crashImage{
		acked:   fs.acked,
		pending: fs.pending,
		live:    make(map[string]crashFile, len(fs.live)),
		durable: make(map[string][]byte, len(fs.durable)),
	}
	for name, ino := range fs.live {
		img.live[name] = crashFile{data: append([]byte(nil), ino.data...), synced: ino.synced}
	}
	for name, ino := range fs.durable {
		img.durable[name] = append([]byte(nil), ino.data[:ino.synced]...)
	}
	fs.images = append(fs.images, img)
}

type simFile struct {
	fs  *simFS
	ino *simInode
}

func (f *simFile) Write(p []byte) (int, error) {
	f.ino.data = append(f.ino.data, p...)
	f.fs.snap()
	return len(p), nil
}

func (f *simFile) Sync() error {
	f.ino.synced = len(f.ino.data)
	f.fs.snap()
	return nil
}

func (f *simFile) Close() error { return nil }

func (fs *simFS) MkdirAll(dir string) error { return nil }

func (fs *simFS) Create(path string) (walFile, error) {
	ino := &simInode{}
	fs.live[path] = ino
	fs.snap()
	return &simFile{fs, ino}, nil
}

func (fs *simFS) OpenAppend(path string) (walFile, int64, error) {
	ino, ok := fs.live[path]
	if !ok {
		ino = &simInode{}
		fs.live[path] = ino
		fs.snap()
	}
	return &simFile{fs, ino}, int64(len(ino.data)), nil
}

func (fs *simFS) ReadFile(path string) ([]byte, error) {
	ino, ok := fs.live[path]
	if !ok {
		return nil, fmt.Errorf("sim: %s: %w", path, os.ErrNotExist)
	}
	return append([]byte(nil), ino.data...), nil
}

func (fs *simFS) ReadDir(dir string) ([]string, error) {
	var names []string
	for path := range fs.live {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *simFS) Truncate(path string, size int64) error {
	ino, ok := fs.live[path]
	if !ok {
		return fmt.Errorf("sim: %s: %w", path, os.ErrNotExist)
	}
	if int(size) > len(ino.data) {
		return fmt.Errorf("sim: truncate %s beyond EOF", path)
	}
	ino.data = ino.data[:size]
	if ino.synced > int(size) {
		ino.synced = int(size)
	}
	fs.snap()
	return nil
}

func (fs *simFS) Rename(oldpath, newpath string) error {
	ino, ok := fs.live[oldpath]
	if !ok {
		return fmt.Errorf("sim: %s: %w", oldpath, os.ErrNotExist)
	}
	fs.live[newpath] = ino
	delete(fs.live, oldpath)
	fs.snap()
	return nil
}

func (fs *simFS) Remove(path string) error {
	if _, ok := fs.live[path]; !ok {
		return fmt.Errorf("sim: %s: %w", path, os.ErrNotExist)
	}
	delete(fs.live, path)
	fs.snap()
	return nil
}

func (fs *simFS) SyncDir(dir string) error {
	// The directory fsync: the live namespace becomes the durable one.
	// Content durability stays per-inode (synced prefix).
	fs.durable = make(map[string]*simInode, len(fs.live))
	for name, ino := range fs.live {
		fs.durable[name] = ino
	}
	fs.snap()
	return nil
}

// crashVariants expands one image into the disk states a power loss
// could leave: (a) only dir-synced names with fsynced content — the
// strictest outcome; (b) every name survived, fsynced content only;
// (c) every name and every written byte survived; (d) like (c) but
// each file with an unsynced tail is torn mid-tail. Byte-granular tail
// coverage lives in the torn-write suite; here a midpoint cut catches
// cross-file ordering bugs.
func crashVariants(img crashImage) []map[string][]byte {
	variants := []map[string][]byte{}

	a := map[string][]byte{}
	for name, data := range img.durable {
		a[name] = data
	}
	variants = append(variants, a)

	b := map[string][]byte{}
	c := map[string][]byte{}
	for name, f := range img.live {
		b[name] = f.data[:f.synced]
		c[name] = f.data
	}
	variants = append(variants, b, c)

	for name, f := range img.live {
		if f.synced < len(f.data) {
			cut := f.synced + (len(f.data)-f.synced+1)/2
			d := map[string][]byte{}
			for n2, f2 := range img.live {
				if n2 == name {
					d[n2] = f2.data[:cut]
				} else {
					d[n2] = f2.data[:f2.synced]
				}
			}
			variants = append(variants, d)
		}
	}
	return variants
}

// TestWALStoreCrashAtEverySyscall runs a scripted single-writer
// workload (rotations, a snapshot, a mid-life reopen, a forced
// compact) over simFS under the default group-commit policy, then
// recovers every crash image variant with the real store and real
// filesystem and checks no acked op is ever lost.
func TestWALStoreCrashAtEverySyscall(t *testing.T) {
	fs := newSimFS()
	// simFS is single-threaded: the trailing timer must never fire.
	opts := WALOptions{SegmentBytes: 220, CompactGarbage: 350, fs: fs, trailingBound: time.Hour}
	simDir := "simwal"

	s, err := OpenWALStore(simDir, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The model: states[k] is the record map after the first k ops.
	states := []map[int][]byte{{}}
	pushState := func(mutate func(m map[int][]byte)) {
		last := states[len(states)-1]
		next := make(map[int][]byte, len(last))
		for k, v := range last {
			next[k] = v
		}
		mutate(next)
		states = append(states, next)
	}
	// fs.pending is the un-synced trailing ops plus the one op of the next
	// call; a batch adds the rest of its length before it runs. A waited
	// call that returns has covered all of it; a trailing one only appended.
	acked := func() { fs.acked, fs.pending = fs.acked+fs.pending, 1 }
	doAdd := func(data []byte) {
		id, err := s.Add(data)
		if err != nil {
			t.Fatalf("op %d Add: %v", len(states), err)
		}
		pushState(func(m map[int][]byte) { m[id] = data })
		acked()
	}
	doSet := func(id int, data []byte) {
		if err := s.Set(id, data); err != nil {
			t.Fatalf("op %d Set(%d): %v", len(states), id, err)
		}
		pushState(func(m map[int][]byte) { m[id] = data })
		acked()
	}
	doDelete := func(id int) {
		if err := s.Delete(id); err != nil {
			t.Fatalf("op %d Delete(%d): %v", len(states), id, err)
		}
		pushState(func(m map[int][]byte) { delete(m, id) })
		acked()
	}

	// doApply commits one batch, doTrail appends one without waiting; the
	// model gains one state per op, so a crash mid-batch must land on one
	// of them.
	batch := func(apply func([]Op) ([]int, error), ops []Op) {
		fs.pending += len(ops) - 1
		ids, err := apply(ops)
		if err != nil {
			t.Fatalf("op %d batch: %v", len(states), err)
		}
		for i, op := range ops {
			id, op := ids[i], op
			pushState(func(m map[int][]byte) {
				if op.Op == OpDelete {
					delete(m, id)
				} else {
					m[id] = op.Data
				}
			})
		}
	}
	doApply := func(ops ...Op) {
		batch(s.Apply, ops)
		acked()
	}
	doTrail := func(ops ...Op) {
		batch(s.ApplyTrailing, ops)
		fs.pending++ // still un-synced, and the next call's op behind them
	}
	// doClose: a clean close syncs the trailing tail; nothing is in flight.
	doClose := func() {
		fs.pending--
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		acked()
	}

	// Phase 1: fill across several rotations.
	for i := 0; i < 8; i++ {
		doAdd([]byte(fmt.Sprintf("crash-add-%02d-%s", i, bytes.Repeat([]byte{'a' + byte(i)}, 30))))
	}
	// Phase 2: churn — supersede enough bytes to cross CompactGarbage
	// so a rotation fires the auto-snapshot.
	for i := 0; i < 6; i++ {
		doSet(1+i%4, []byte(fmt.Sprintf("crash-set-%02d-%s", i, bytes.Repeat([]byte{'A' + byte(i)}, 30))))
	}
	doDelete(5)
	doDelete(6)
	// The three caller shapes, crossing a rotation: entry + meta, cursor
	// + deletes, tombstone + delete of the superseded record.
	doApply(Op{Op: OpAdd, Data: []byte("crash-entry-" + strings.Repeat("e", 40))},
		Op{Op: OpSet, ID: 1, Data: []byte("crash-meta-" + strings.Repeat("m", 40))})
	doApply(Op{Op: OpSet, ID: 1, Data: []byte("crash-cursor")}, Op{Op: OpDelete, ID: 7}, Op{Op: OpDelete, ID: 8}, Op{Op: OpDelete, ID: 9})
	doApply(Op{Op: OpAdd, Data: []byte("crash-tombstone")}, Op{Op: OpDelete, ID: 2})
	// Trailing and waited batches interleaved, as a journal retires one
	// agent while it records the next: a trailing tombstone replace, a
	// waited record that covers it, two trailing batches in a row crossing
	// a rotation (which syncs them), a waited batch, and a trailing drop
	// left for Close to sync.
	doTrail(Op{Op: OpAdd, Data: []byte("crash-trail-tomb-" + strings.Repeat("t", 30))}, Op{Op: OpDelete, ID: 3})
	doAdd([]byte("crash-record-after-trail"))
	doTrail(Op{Op: OpAdd, Data: []byte("crash-trail-tomb2-" + strings.Repeat("u", 40))}, Op{Op: OpDelete, ID: 4})
	doTrail(Op{Op: OpAdd, Data: []byte("crash-trail-tomb3-" + strings.Repeat("v", 40))}, Op{Op: OpDelete, ID: 1})
	doApply(Op{Op: OpAdd, Data: []byte("crash-entry2")}, Op{Op: OpSet, ID: 10, Data: []byte("crash-meta2")})
	doTrail(Op{Op: OpDelete, ID: 10})
	// Phase 3: a mid-life crash-free restart — recovery's own syscalls
	// (truncates, removes, the end-of-open SyncDir) also yield images.
	doClose()
	s, err = OpenWALStore(simDir, opts)
	if err != nil {
		t.Fatalf("mid-life reopen: %v", err)
	}
	assertWALState(t, "mid-life reopen", s, states[len(states)-1])
	for i := 0; i < 4; i++ {
		doAdd([]byte(fmt.Sprintf("crash-add2-%02d-%s", i, bytes.Repeat([]byte{'n' + byte(i)}, 30))))
	}
	// Phase 4: a forced snapshot, then a last write and a clean close.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	doAdd([]byte("crash-final"))
	doTrail(Op{Op: OpAdd, Data: []byte("crash-trailing-final")})
	doClose()

	if len(fs.images) < 50 {
		t.Fatalf("suite captured only %d crash images — instrumentation broken?", len(fs.images))
	}
	if fs.acked != len(states)-1 {
		t.Fatalf("model drifted: %d ops acked after the last close, %d applied", fs.acked, len(states)-1)
	}
	t.Logf("%d crash images, %d ops", len(fs.images), fs.acked)

	// Recover every variant of every image with the REAL store on the
	// real filesystem and hold it to the model.
	for idx, img := range fs.images {
		for v, files := range crashVariants(img) {
			dir := filepath.Join(t.TempDir(), "img.wal")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re, err := OpenWALStore(dir, WALOptions{})
			if err != nil {
				t.Fatalf("image %d variant %d (acked=%d): recovery failed: %v", idx, v, img.acked, err)
			}
			// Allowed: the acked prefix, plus any prefix of what was
			// appended behind it when the crash hit.
			allowed := states[img.acked:min(img.acked+img.pending+1, len(states))]
			if !matchesAny(re, allowed) {
				ids, _ := re.IDs()
				t.Fatalf("image %d variant %d: recovered ids %v match none of states %d..%d — acked write lost, phantom write surfaced or a batch replayed with a gap",
					idx, v, ids, img.acked, img.acked+img.pending)
			}
			// Recovered stores must also accept new writes.
			if _, err := re.Add([]byte("post-crash")); err != nil {
				t.Fatalf("image %d variant %d: post-crash Add: %v", idx, v, err)
			}
			re.Close()
		}
	}
}

func matchesAny(s *WALStore, candidates []map[int][]byte) bool {
	ids, err := s.IDs()
	if err != nil {
		return false
	}
next:
	for _, want := range candidates {
		if len(ids) != len(want) {
			continue
		}
		for _, id := range ids {
			got, err := s.Get(id)
			if err != nil || !bytes.Equal(got, want[id]) {
				continue next
			}
		}
		return true
	}
	return false
}
