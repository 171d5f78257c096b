package push

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pdagent/internal/rms"
)

// replaySeedStore runs a short mailbox history — two devices, acks,
// nine seals on one of them — over a MemStore and returns its records.
func replaySeedStore(f *testing.F) [][]byte {
	store := rms.NewMemStore("seed", 0)
	h, err := NewHub(Config{Store: store, Clock: func() time.Time { return dedupEpoch }})
	if err != nil {
		f.Fatal(err)
	}
	h.Touch("alice")
	h.SetTenant("bob", "acme")
	for i := 1; i <= 9*chunkSize+3; i++ {
		h.PollStaged("alice", uint64(i-2), 0)
		if _, _, err := h.Enqueue("alice", KindResult, fmt.Sprint("ag-", i), fmt.Sprint("result:ag-", i), []byte("<r/>")); err != nil {
			f.Fatal(err)
		}
	}
	h.Enqueue("bob", KindStatus, "ag-b", "status:ag-b", []byte("a & b"))
	h.Close()
	ids, _ := store.IDs()
	var recs [][]byte
	for _, id := range ids {
		data, _ := store.Get(id)
		recs = append(recs, data)
	}
	return recs
}

// FuzzReplay feeds NewHub stores of arbitrary records, as a promoted
// standby replays whatever reached it over replication: records are
// separated by NUL bytes, which XML cannot hold. Replay must never
// panic, allocate past 64× its input + 1 MiB, or rebuild a different
// mailbox from the store it left behind: a hub reopened over it gives
// every device the same Poll answer, seq watermark and dedup set.
func FuzzReplay(f *testing.F) {
	recs := replaySeedStore(f)
	f.Add(bytes.Join(recs, []byte{0}))
	for _, rec := range recs[:4] {
		f.Add(rec)
	}
	var legacy bytes.Buffer
	legacy.WriteString(`<mb-meta device="d" next="66" cursor="60" evicted="2" token="t">`)
	for i := 1; i <= metaDedupPersist; i++ {
		fmt.Fprintf(&legacy, `<e seq="%d">e-%d</e>`, i, i)
	}
	legacy.WriteString(`</mb-meta>`)
	f.Add(legacy.Bytes())
	f.Add([]byte(`<mb-meta device="d" next="3" cursor="1" evicted="0" token="t"></mb-meta>` + "\x00" +
		`<mb-entry device="d" seq="2" kind="result" agent="a" event="e-2" enq="5">x</mb-entry>` + "\x00" +
		`<mb-seen device="d"><e seq="1" at="4">e-1</e></mb-seen>`))
	f.Add([]byte(`<mb-seen device="d"><e seq="9">x</e><e seq="9">x</e><e>y</e></mb-seen>` + "\x00" +
		`<mb-meta device="d" next="1"><e seq="1">x</e></mb-meta>` + "\x00" + `<mb-meta device="d" next="4"/>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		store := rms.NewMemStore("fuzz", 0)
		for _, rec := range bytes.Split(data, []byte{0}) {
			if _, err := store.Add(rec); err != nil {
				return
			}
		}
		cfg := Config{Store: store, Clock: func() time.Time { return dedupEpoch }}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := NewHub(cfg)
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; n > bound {
			t.Fatalf("replaying %d bytes allocated %d, bound %d", len(data), n, bound)
		}
		if err != nil {
			t.Fatalf("replay over a MemStore failed: %v", err)
		}
		again, err := NewHub(cfg)
		if err != nil {
			t.Fatalf("the store replay left does not replay: %v", err)
		}
		for _, dev := range h.Devices() {
			if a, b := replayState(h, dev), replayState(again, dev); !reflect.DeepEqual(a, b) {
				t.Fatalf("device %q replays to\n%+v\nthen, over the store that left, to\n%+v", dev, a, b)
			}
		}
	})
}

// mailboxState is what FuzzReplay compares of one replayed mailbox.
type mailboxState struct {
	Entries            []Entry
	Watermark, Evicted uint64
	NextSeq            uint64
	Dedup              map[string]uint64
}

func replayState(h *Hub, dev string) mailboxState {
	var st mailboxState
	entries, wm, ev, _ := h.Poll(dev, 0, 0)
	for _, e := range entries {
		st.Entries = append(st.Entries, *e)
	}
	st.Watermark, st.Evicted = wm, ev
	mb, _ := h.lookup(dev)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	st.NextSeq, st.Dedup = mb.nextSeq, mb.dedup
	return st
}
