package repl

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"pdagent/internal/rms"
)

// commitBatches runs a small journal-shaped workload on a tapped store —
// adds, overwrites, deletes, a multi-op commit — and returns the op
// batches its commit tap handed out, as a sender streams them, and the
// store's final image, as a snapshot carries it.
func commitBatches(tb testing.TB) ([][]rms.CommitOp, map[int][]byte) {
	tb.Helper()
	store := rms.NewMemStore("journal", 0)
	var batches [][]rms.CommitOp
	store.SetCommitSink(func(ops []rms.CommitOp) {
		batches = append(batches, append([]rms.CommitOp(nil), ops...))
	})
	a, err := store.Add([]byte(`<agent id="ag-gw-0-1" dest="bank-a">snapshot</agent>`))
	if err != nil {
		tb.Fatal(err)
	}
	b, err := store.Add(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.Set(a, []byte(`<agent id="ag-gw-0-1" dest="bank-b">snapshot, one hop on</agent>`)); err != nil {
		tb.Fatal(err)
	}
	if _, err := store.Apply([]rms.CommitOp{
		{Op: rms.OpAdd, Data: []byte(`<mb-entry device="pda-00" seq="1"/>`)},
		{Op: rms.OpSet, ID: b, Data: []byte(`<mb-meta device="pda-00" next="2"/>`)},
		{Op: rms.OpDelete, ID: a},
	}); err != nil {
		tb.Fatal(err)
	}
	recs, _, err := dumpStore(store)
	if err != nil {
		tb.Fatal(err)
	}
	if len(batches) < 4 {
		tb.Fatalf("%d commit batches, want one per mutation", len(batches))
	}
	return batches, recs
}

// allocatedBy reports the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeOps throws at the repl stream decoder what any member
// holding the cluster secret may send to /cluster/repl/stream and
// /cluster/repl/snapshot: the framing of real
// commit batches and store images, their truncations, and mutations of
// both. No input panics or allocates more than a fixed multiple of its
// own length, and a batch that decodes re-encodes to the bytes it came
// from and decodes to itself again.
func FuzzDecodeOps(f *testing.F) {
	batches, recs := commitBatches(f)
	var all []rms.CommitOp
	for _, ops := range batches {
		all = append(all, ops...)
	}
	for _, b := range [][]byte{encodeOps(all), encodeRecords(recs), encodeOps(batches[0])} {
		f.Add(b)
		for _, cut := range []int{1, 9, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []rms.CommitOp
		var err error
		n := allocatedBy(func() { ops, err = decodeOps(data) })
		// The slack covers what the fuzzing engine's own goroutines
		// allocate while the decoder runs.
		if bound := 16*uint64(len(data)) + 1<<16; n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		again := encodeOps(ops)
		if !bytes.Equal(again, data) {
			t.Fatalf("%d op(s) re-encode to %x, decoded from %x", len(ops), again, data)
		}
		back, err := decodeOps(again)
		if err != nil || !reflect.DeepEqual(back, ops) {
			t.Fatalf("re-encoded ops decode to %+v (%v), want %+v", back, err, ops)
		}
	})
}

// TestCommitBatchesRoundTrip: every batch the fuzz target is seeded
// with is a real commit batch, and decodes to itself.
func TestCommitBatchesRoundTrip(t *testing.T) {
	batches, recs := commitBatches(t)
	for i, ops := range batches {
		back, err := decodeOps(encodeOps(ops))
		if err != nil || !reflect.DeepEqual(back, ops) {
			t.Fatalf("batch %d: %+v decodes to %+v (%v)", i, ops, back, err)
		}
	}
	back, err := decodeOps(encodeRecords(recs))
	if err != nil || len(back) != len(recs) {
		t.Fatalf("store image of %d records decodes to %d ops (%v)", len(recs), len(back), err)
	}
	for _, op := range back {
		if op.Op != rms.OpSet || !bytes.Equal(op.Data, recs[op.ID]) {
			t.Fatalf("image op %+v, want a set of record %d", op, op.ID)
		}
	}
}
