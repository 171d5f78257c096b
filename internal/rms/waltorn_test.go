package rms

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// walPrefixStates parses one segment's bytes and returns every entry
// boundary offset alongside the store state reachable by replaying up
// to it, folded on top of base. boundaries[0] is the magic (empty
// delta); states[i] is the state after the first i entries.
func walPrefixStates(seg []byte, base map[int][]byte) (boundaries []int64, states []map[int][]byte) {
	cloneState := func(m map[int][]byte) map[int][]byte {
		c := make(map[int][]byte, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	cur := cloneState(base)
	boundaries = append(boundaries, int64(len(segMagic)))
	states = append(states, cloneState(cur))
	if len(seg) < len(segMagic) || !bytes.Equal(seg[:len(segMagic)], segMagic) {
		return boundaries, states
	}
	r := bufio.NewReader(bytes.NewReader(seg[len(segMagic):]))
	off := int64(len(segMagic))
	for {
		op, id, payload, n, ok := readLogEntry(r)
		if !ok {
			break
		}
		switch op {
		case opAdd, opSet:
			cur[id] = payload
		case opDelete:
			delete(cur, id)
		}
		off += int64(n)
		boundaries = append(boundaries, off)
		states = append(states, cloneState(cur))
	}
	return boundaries, states
}

// expectedAtCut returns the state recovery must produce for a segment
// truncated at cut: the last entry boundary at or before the cut.
func expectedAtCut(boundaries []int64, states []map[int][]byte, cut int64) map[int][]byte {
	want := states[0]
	for i, b := range boundaries {
		if b <= cut {
			want = states[i]
		}
	}
	return want
}

func assertWALState(t *testing.T, tag string, s *WALStore, want map[int][]byte) {
	t.Helper()
	ids, err := s.IDs()
	if err != nil {
		t.Fatalf("%s: IDs: %v", tag, err)
	}
	wantIDs := make([]int, 0, len(want))
	for id := range want {
		wantIDs = append(wantIDs, id)
	}
	sort.Ints(wantIDs)
	if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
		t.Fatalf("%s: recovered ids %v, want %v", tag, ids, wantIDs)
	}
	for id, data := range want {
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: Get(%d) = %q, %v; want %q", tag, id, got, err, data)
		}
	}
}

// TestWALStoreTornBatchCommit truncates a segment holding a full batch
// of adds, overwrites and deletes — waited writes interleaved with
// trailing batches — at EVERY byte boundary and reopens: recovery must
// land exactly on the last intact entry boundary — never an error, never
// a phantom or corrupt record, never a trailing op without everything
// appended before it — and the store must accept writes afterwards.
func TestWALStoreTornBatchCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "torn.wal")
	s := openTestWAL(t, dir, WALOptions{trailingBound: time.Hour})
	payloads := [][]byte{
		[]byte("alpha-record-one"),
		bytes.Repeat([]byte{0xAB}, 300),
		[]byte(""),
		[]byte("delta \x00 binary \xff tail"),
	}
	for _, p := range payloads {
		if _, err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Set(2, []byte("beta-overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	// A trailing tombstone replace, a waited write behind it, a trailing
	// delete left for Close: the file holds them in call order.
	if ids, err := s.ApplyTrailing([]Op{{Op: OpAdd, Data: []byte("trailing-tombstone")}, {Op: OpDelete, ID: 1}}); err != nil || ids[0] != 5 {
		t.Fatalf("ApplyTrailing = %v, %v", ids, err)
	}
	if id, err := s.Add([]byte("waited-after-trailing")); err != nil || id != 6 {
		t.Fatalf("Add = %d, %v", id, err)
	}
	if _, err := s.ApplyTrailing([]Op{{Op: OpDelete, ID: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segFile := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
	full, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}
	boundaries, states := walPrefixStates(full, map[int][]byte{})
	// Log order is call order: the state after each of the 10 entries is
	// the model's — in particular no prefix holds the waited record 6
	// without the trailing tombstone 5, or misses record 1's delete.
	if len(states) != 11 {
		t.Fatalf("segment holds %d entries, want 10", len(states)-1)
	}
	for i, st := range states {
		_, has5 := st[5]
		_, has1 := st[1]
		_, has6 := st[6]
		_, has4 := st[4]
		if (i >= 7) != has5 || (i >= 1 && i < 8) != has1 || (i >= 9) != has6 || (i >= 4 && i < 10) != has4 {
			t.Fatalf("after entry %d the log reads tombstone %v, record-1 %v, record-6 %v, record-4 %v: not call order", i, has5, has1, has6, has4)
		}
	}

	for cut := 0; cut <= len(full); cut++ {
		cutDir := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(segFile)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := OpenWALStore(cutDir, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		assertWALState(t, fmt.Sprintf("cut=%d", cut), ts, expectedAtCut(boundaries, states, int64(cut)))
		// A recovered store must stay writable — and its new record must
		// be reachable by yet another replay (torn tails really cut).
		newID, err := ts.Add([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("cut=%d: Add after recovery: %v", cut, err)
		}
		if err := ts.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		re, err := OpenWALStore(cutDir, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: second open: %v", cut, err)
		}
		if got, err := re.Get(newID); err != nil || !bytes.Equal(got, []byte("post-recovery")) {
			t.Fatalf("cut=%d: post-recovery record after second replay: %q %v", cut, got, err)
		}
		re.Close()
	}
	// The untruncated file recovers the complete final state.
	if final := states[len(states)-1]; len(final) != 3 {
		t.Fatalf("model ended with %d records, want 3 (2, 5, 6)", len(final))
	}
}

// TestWALStoreTornTailMultiSegment spans the history across several
// sealed segments and tears only the ACTIVE one at every byte: sealed
// history must always survive intact, the active segment recovers to
// its last entry boundary.
func TestWALStoreTornTailMultiSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "multi.wal")
	opts := WALOptions{Sync: SyncNever, SegmentBytes: 256, CompactGarbage: 1 << 30}
	s := openTestWAL(t, dir, opts)
	for i := 0; i < 30; i++ {
		if _, err := s.Add([]byte(fmt.Sprintf("multi-%02d-%s", i, strings.Repeat("m", 20)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(7, []byte("seven-rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v (%v)", segs, err)
	}
	sort.Strings(segs)

	// Sealed state: everything up to the end of the penultimate segment.
	sealed := map[int][]byte{}
	for _, p := range segs[:len(segs)-1] {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, st := walPrefixStates(data, sealed)
		sealed = st[len(st)-1]
	}
	last := segs[len(segs)-1]
	full, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	boundaries, states := walPrefixStates(full, sealed)

	for cut := 0; cut <= len(full); cut++ {
		cutDir := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range segs[:len(segs)-1] {
			data, _ := os.ReadFile(p)
			if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(last)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := OpenWALStore(cutDir, opts)
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		assertWALState(t, fmt.Sprintf("cut=%d", cut), ts, expectedAtCut(boundaries, states, int64(cut)))
		if _, err := ts.Add([]byte("post-recovery")); err != nil {
			t.Fatalf("cut=%d: Add after recovery: %v", cut, err)
		}
		if err := ts.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestWALStoreTornMiddleSegment tears a SEALED mid-chain segment (the
// should-not-happen case — sealed segments were fsynced): recovery must
// degrade to the intact prefix, discard everything past the tear, and
// stay usable. Never a panic, never a gap silently bridged.
func TestWALStoreTornMiddleSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mid.wal")
	opts := WALOptions{Sync: SyncNever, SegmentBytes: 256, CompactGarbage: 1 << 30}
	s := openTestWAL(t, dir, opts)
	for i := 0; i < 30; i++ {
		if _, err := s.Add([]byte(fmt.Sprintf("mid-%02d-%s", i, strings.Repeat("q", 20)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v", segs)
	}
	sort.Strings(segs)
	mid := segs[len(segs)/2]

	// Prefix state: all segments before mid, plus mid's surviving half.
	prefix := map[int][]byte{}
	for _, p := range segs {
		if p == mid {
			break
		}
		data, _ := os.ReadFile(p)
		_, st := walPrefixStates(data, prefix)
		prefix = st[len(st)-1]
	}
	midData, _ := os.ReadFile(mid)
	cut := len(midData) / 2
	bounds, states := walPrefixStates(midData, prefix)
	want := expectedAtCut(bounds, states, int64(cut))

	if err := os.Truncate(mid, int64(cut)); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenWALStore(dir, opts)
	if err != nil {
		t.Fatalf("open with torn middle segment: %v", err)
	}
	defer ts.Close()
	assertWALState(t, "mid-tear", ts, want)
	// Segments past the tear must be gone — they are no longer a
	// trustworthy continuation of the log.
	after, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	for _, p := range after {
		if p > mid {
			t.Fatalf("segment past the tear survived: %v", after)
		}
	}
	if _, err := ts.Add([]byte("post-recovery")); err != nil {
		t.Fatalf("Add after mid-tear recovery: %v", err)
	}
}

// TestWALStoreFlippedByte corrupts one byte at a time across a segment:
// the CRC must stop replay at (or before) the damaged entry instead of
// surfacing corrupt data.
func TestWALStoreFlippedByte(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flip.wal")
	s := openTestWAL(t, dir, WALOptions{Sync: SyncNever})
	if _, err := s.Add([]byte("first-record")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segFile := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
	full, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}
	for pos := len(segMagic); pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		flipDir := filepath.Join(t.TempDir(), "flip.wal")
		if err := os.MkdirAll(flipDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(flipDir, filepath.Base(segFile)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := OpenWALStore(flipDir, WALOptions{})
		if err != nil {
			t.Fatalf("pos=%d: open failed: %v", pos, err)
		}
		ids, err := ts.IDs()
		if err != nil {
			t.Fatalf("pos=%d: IDs: %v", pos, err)
		}
		for _, id := range ids {
			got, err := ts.Get(id)
			if err != nil {
				t.Fatalf("pos=%d: Get(%d): %v", pos, id, err)
			}
			if id == 1 && !bytes.Equal(got, []byte("first-record")) {
				t.Fatalf("pos=%d: record 1 surfaced corrupt: %q", pos, got)
			}
			if id == 2 && !bytes.Equal(got, []byte("second-record")) {
				t.Fatalf("pos=%d: record 2 surfaced corrupt: %q", pos, got)
			}
		}
		ts.Close()
	}
}
