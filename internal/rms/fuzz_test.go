package rms

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fuzzDir is where FuzzLoadWAL lays its two files out: a snapshot and
// the segment replayed on top of it, both at sequence 1.
const fuzzDir = "fuzzwal"

// walFiles runs a real store over simFS — adds, sets and deletes
// across segment rotations and a snapshot — and returns the newest
// snapshot and the segment after it, and the first segment of a store
// that never compacted.
func walFiles(tb testing.TB) (snap, seg, fresh []byte) {
	tb.Helper()
	open := func(dir string) (*simFS, *WALStore) {
		fs := newSimFS()
		s, err := OpenWALStore(dir, WALOptions{SegmentBytes: 300, CompactGarbage: 1 << 20, fs: fs, trailingBound: time.Hour})
		if err != nil {
			tb.Fatal(err)
		}
		return fs, s
	}
	fs, s := open("a")
	for i := 0; i < 12; i++ {
		id, err := s.Add([]byte(strings.Repeat("rec", i)))
		if err != nil {
			tb.Fatal(err)
		}
		if i%3 == 0 {
			if err := s.Delete(id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := s.Compact(); err != nil {
		tb.Fatal(err)
	}
	if err := s.Set(2, []byte("after the snapshot")); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Op: OpAdd, Data: []byte("batched")}, {Op: OpDelete, ID: 5}}); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	for name, ino := range fs.live {
		switch {
		case strings.HasSuffix(name, snapSuffix):
			snap = ino.data
		case strings.HasSuffix(name, segSuffix):
			seg = ino.data
		}
	}
	fs, s = open("b")
	for i := 0; i < 4; i++ {
		if _, err := s.Add([]byte{byte(i), 0, 1}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	for _, ino := range fs.live {
		fresh = ino.data
	}
	if snap == nil || seg == nil || fresh == nil {
		tb.Fatal("the stores left no snapshot or segment")
	}
	return snap, seg, fresh
}

// shortSnapshot is a 31-byte snapshot whose header — checksummed, and
// so believed — declares a million entries.
func shortSnapshot() []byte {
	hdr := append([]byte(nil), snapMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, 1)
	hdr = binary.BigEndian.AppendUint64(hdr, 1<<20)
	return binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
}

// openFuzzStore opens the store over a simFS holding snap and seg
// (either may be empty: absent) and returns its records and next id.
func openFuzzStore(fs *simFS) (map[int][]byte, int, error) {
	s, err := OpenWALStore(fuzzDir, WALOptions{fs: fs, trailingBound: time.Hour})
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	ids, err := s.IDs()
	if err != nil {
		return nil, 0, err
	}
	records := make(map[int][]byte, len(ids))
	for _, id := range ids {
		if records[id], err = s.Get(id); err != nil {
			return nil, 0, err
		}
	}
	next, err := s.NextID()
	return records, next, err
}

// FuzzLoadWAL throws at WAL recovery what a disk may hold: a snapshot
// and a segment that a real store wrote, their truncations, and
// mutations of both. No input panics or allocates more than a fixed
// multiple of its length, and a store that opens re-opens to the same
// records and next id.
func FuzzLoadWAL(f *testing.F) {
	snap, seg, fresh := walFiles(f)
	f.Add(snap, seg)
	f.Add([]byte(nil), fresh)
	f.Add(shortSnapshot(), []byte(nil))
	// An entry header declaring a 16 MiB payload the segment does not hold.
	f.Add([]byte(nil), append(bytes.Clone(segMagic), opAdd, 0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	for _, cut := range []int{1, 13, len(snapMagic) + 20, len(snap) / 2, len(snap) - 1} {
		f.Add(snap[:cut], seg)
	}
	for _, cut := range []int{len(segMagic) - 1, len(segMagic) + 7, len(seg) / 2, len(seg) - 1} {
		f.Add(snap, seg[:cut])
	}
	f.Fuzz(func(t *testing.T, snap, seg []byte) {
		fs := newSimFS()
		if len(snap) > 0 {
			fs.live[fuzzDir+"/snap-0000000000000001.snap"] = &simInode{data: bytes.Clone(snap)}
		}
		if len(seg) > 0 {
			fs.live[fuzzDir+"/wal-0000000000000001.seg"] = &simInode{data: bytes.Clone(seg)}
		}
		var records map[int][]byte
		var next int
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records, next, err = openFuzzStore(fs)
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(snap)+len(seg))+1<<20; n > bound {
			t.Fatalf("opening %d+%d bytes allocated %d, bound %d", len(snap), len(seg), n, bound)
		}
		if err != nil {
			return
		}
		again, againNext, err := openFuzzStore(fs)
		if err != nil {
			t.Fatalf("a store that opened does not re-open: %v", err)
		}
		if againNext != next || len(again) != len(records) {
			t.Fatalf("re-opened to %d records, next id %d; want %d, %d", len(again), againNext, len(records), next)
		}
		for id, data := range records {
			if !bytes.Equal(again[id], data) {
				t.Fatalf("record %d re-opened as %q, want %q", id, again[id], data)
			}
		}
	})
}
