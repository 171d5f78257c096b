package push

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pdagent/internal/kxml"
	"pdagent/internal/rms"
)

// countingStore is an rms.Store decorator that counts the record bytes
// each Apply hands the store beneath it.
type countingStore struct {
	rms.Store
	applied []int // record bytes per Apply, in call order
	chunk   int   // the largest mb-seen record seen
}

func (s *countingStore) Apply(ops []rms.Op) ([]int, error) {
	n := 0
	for _, op := range ops {
		n += len(op.Data)
		if strings.HasPrefix(string(op.Data), "<mb-seen ") {
			s.chunk = max(s.chunk, len(op.Data))
		}
	}
	s.applied = append(s.applied, n)
	return s.Store.Apply(ops)
}

// TestCommitBytesDoNotGrowWithHistory: what one journey of a
// long-polling device writes — its enqueue's commit, which folds the
// previous journey's ack — depends on where the journey falls in the
// chunkSize-id seal cycle, not on how many journeys came before. Each
// journey of the 25th cycle (193–200) carries no more bytes than the
// same journey of the second cycle (9–16) plus one mb-seen chunk (the
// slack covers the longer seqs and ids). A meta record that carries
// the newest metaDedupPersist ids inline grows by about 2×56 B per
// journey until the 64th.
func TestCommitBytesDoNotGrowWithHistory(t *testing.T) {
	store := &countingStore{Store: rms.NewMemStore("mb", 0)}
	h := newTestHub(t, store, nil)
	h.Touch("alice")
	const journeys = 200
	bytes := make([]int, journeys+1) // bytes[j]: what journey j's commits carried
	for j := 1; j <= journeys; j++ {
		if _, _, _, err := h.PollStaged("alice", uint64(j-1), 0); err != nil {
			t.Fatal(err)
		}
		before := len(store.applied)
		mustEnqueue(t, h, "alice", KindResult, fmt.Sprint("ag-", j), fmt.Sprint("result:ag-", j), "<result-document>done</result-document>")
		for _, n := range store.applied[before:] {
			bytes[j] += n
		}
	}
	if store.chunk == 0 {
		t.Fatal("200 journeys sealed no mb-seen chunk")
	}
	for j := journeys - chunkSize + 1; j <= journeys; j++ {
		early := j - (journeys/chunkSize-2)*chunkSize
		if bytes[j] > bytes[early]+store.chunk {
			t.Errorf("journey %d's commit carries %d B; journey %d's carried %d B, one chunk is %d B", j, bytes[j], early, bytes[early], store.chunk)
		}
	}
}

// TestReplayReadsInlineDedupTail: a meta record written before mb-seen
// records existed carries the newest metaDedupPersist ids inline.
// Replay remembers all of them and seals them into one chunk, so the
// first commit after it, whose meta carries only the live tail, loses
// none, and neither does a second reopen.
func TestReplayReadsInlineDedupTail(t *testing.T) {
	var meta strings.Builder
	meta.WriteString(`<mb-meta device="alice" next="65" cursor="64" evicted="0" token="tok">`)
	for i := 1; i <= metaDedupPersist; i++ {
		fmt.Fprintf(&meta, `<e seq="%d" at="%d">result:ag-%d</e>`, i, dedupEpoch.UnixNano(), i)
	}
	meta.WriteString(`</mb-meta>`)
	store := rms.NewMemStore("mb", 0)
	if _, err := store.Add([]byte(meta.String())); err != nil {
		t.Fatal(err)
	}
	open := func() *Hub {
		return newTestHub(t, store, func(c *Config) {
			c.Clock = func() time.Time { return dedupEpoch.Add(time.Minute) }
		})
	}
	refusesAll := func(h *Hub, when string) {
		t.Helper()
		for i := 1; i <= metaDedupPersist; i++ {
			if seq, dup, err := h.Enqueue("alice", KindResult, "ag-x", fmt.Sprint("result:ag-", i), []byte("again")); err != nil || !dup || seq != uint64(i) {
				t.Fatalf("%s: result:ag-%d = seq %d, dup %v, %v; want refused as seq %d", when, i, seq, dup, err, i)
			}
		}
	}
	h := open()
	refusesAll(h, "replay")
	seq := mustEnqueue(t, h, "alice", KindResult, "ag-65", "result:ag-65", "<r/>")
	if _, err := h.Ack("alice", seq); err != nil {
		t.Fatal(err)
	}
	var seen, inline []int
	ids, _ := store.IDs()
	for _, id := range ids {
		data, _ := store.Get(id)
		root, err := kxml.ParseBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		switch root.Name {
		case "mb-seen":
			seen = append(seen, len(root.FindAll("e")))
		case "mb-meta":
			inline = append(inline, len(root.FindAll("e")))
		default:
			t.Fatalf("record %d is an %s after the ack", id, root.Name)
		}
	}
	if fmt.Sprint(seen, inline) != fmt.Sprint([]int{metaDedupPersist}, []int{1}) {
		t.Fatalf("store holds mb-seen records of %v ids and metas of %v inline; want one chunk of %d, one meta carrying result:ag-65", seen, inline, metaDedupPersist)
	}
	refusesAll(h, "after the first commit")
	refusesAll(open(), "second reopen")
}

// TestAgedChunksLeaveWithTheirIDs: when DedupTTL ages ids out, every
// mb-seen record whose newest id is gone is deleted with the meta's
// rewrite, and no other; a drained device ends with its meta alone.
func TestAgedChunksLeaveWithTheirIDs(t *testing.T) {
	var vnow time.Duration
	store := rms.NewMemStore("mb", 0)
	h := newTestHub(t, store, func(c *Config) {
		c.DedupTTL = time.Minute
		c.Clock = func() time.Time { return dedupEpoch.Add(vnow) }
	})
	for i := 1; i <= 3*chunkSize+2; i++ { // id i enqueued and acked at i seconds
		vnow = time.Duration(i) * time.Second
		seq := mustEnqueue(t, h, "d", KindResult, fmt.Sprint("ag-", i), fmt.Sprint("result:ag-", i), "<r/>")
		if _, err := h.Ack("d", seq); err != nil {
			t.Fatal(err)
		}
	}
	records := func() int {
		n, _ := store.NumRecords()
		return n
	}
	if n := records(); n != 1+3 {
		t.Fatalf("%d records after 26 acked ids, want the meta and 3 chunks", n)
	}
	vnow = time.Minute + 10*time.Second // ids 1–9 aged: the first chunk's newest (8) is gone, the second's (16) is not
	h.SweepExpired()
	if n, ids := records(), h.Stats().DedupIDs; n != 1+2 || ids != 3*chunkSize+2-9 {
		t.Fatalf("after ids 1–9 aged: %d records, %d ids remembered; want the meta and 2 chunks, %d", n, ids, 3*chunkSize+2-9)
	}
	vnow = time.Hour
	h.SweepExpired()
	if n := records(); n != 1 {
		t.Fatalf("%d records after every id aged, want the meta alone", n)
	}
	if st := newTestHub(t, store, nil).Stats(); st.DedupIDs != 0 {
		t.Fatalf("a reopened hub remembers %d ids", st.DedupIDs)
	}
}
