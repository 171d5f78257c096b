package mas

import (
	"bytes"
	"reflect"
	"testing"

	"pdagent/internal/atp"
)

// goldenLive and goldenTomb are a live journal record and its tombstone,
// each beside its bytes laid out by hand as the journal's format comment
// and DESIGN.md §3 give it: "MASJ2", the watermark + 1, then id, home,
// code-id, owner, state, target, kind, last-err, tenant, program and
// vm-state, each a big-endian uint32 length and its bytes.
var (
	goldenLive = &journalEntry{
		Image: atp.Image{
			AgentID: "ag-1", Home: "gw-0", CodeID: "code-1", Owner: "dev-1",
			Program: []byte("prog"), State: []byte("state"),
		},
		State: StateRunning, Target: "bank-a", Kind: KindMigrate, Tenant: "acme", Watermark: 2,
	}
	goldenLiveBytes = "MASJ2" + "\x00\x00\x00\x03" +
		"\x00\x00\x00\x04ag-1" + "\x00\x00\x00\x04gw-0" + "\x00\x00\x00\x06code-1" + "\x00\x00\x00\x05dev-1" +
		"\x00\x00\x00\x07running" + "\x00\x00\x00\x06bank-a" + "\x00\x00\x00\x07migrate" + "\x00\x00\x00\x00" +
		"\x00\x00\x00\x04acme" + "\x00\x00\x00\x04prog" + "\x00\x00\x00\x05state"

	goldenTomb = &journalEntry{
		Image: atp.Image{AgentID: "ag-1", Home: "gw-0", CodeID: "code-1", Owner: "dev-1"},
		State: StateDeparted, Tenant: "acme", Watermark: 2,
	}
	goldenTombBytes = "MASJ2" + "\x00\x00\x00\x03" +
		"\x00\x00\x00\x04ag-1" + "\x00\x00\x00\x04gw-0" + "\x00\x00\x00\x06code-1" + "\x00\x00\x00\x05dev-1" +
		"\x00\x00\x00\x08departed" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00" +
		"\x00\x00\x00\x04acme" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00"
)

// TestJournalEntryGolden pins the on-disk journal record: the encoder
// writes the documented layout byte for byte, and the layout decodes
// back to the entry.
func TestJournalEntryGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		entry *journalEntry
		bytes string
	}{
		{"live", goldenLive, goldenLiveBytes},
		{"tombstone", goldenTomb, goldenTombBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.entry.encode(); string(got) != tc.bytes {
				t.Fatalf("encode =\n%q\nwant\n%q", got, tc.bytes)
			}
			back, err := decodeJournalEntry([]byte(tc.bytes))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, tc.entry) {
				t.Fatalf("decode = %+v, want %+v", back, tc.entry)
			}
		})
	}
}

// FuzzDecodeJournalEntry throws at the journal decoder what AdoptJournal
// reads from a replica another member streamed: live records, tombstones
// and pre-tenant "MASJ1" records, mutated. No input panics, and an entry
// the decoder accepts re-encodes as "MASJ2" — to the very input when it
// was one — and decodes to itself again.
func FuzzDecodeJournalEntry(f *testing.F) {
	f.Add([]byte(goldenLiveBytes))
	f.Add([]byte(goldenTombBytes))
	f.Add(encodeV1Entry(goldenLive))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeJournalEntry(data)
		if err != nil {
			return
		}
		again := e.encode()
		if bytes.HasPrefix(data, journalMagic) && !bytes.Equal(again, data) {
			t.Fatalf("MASJ2 record re-encodes differently:\n in %q\nout %q", data, again)
		}
		back, err := decodeJournalEntry(again)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("entry changed over a re-encode:\n got %+v\nback %+v", e, back)
		}
	})
}
