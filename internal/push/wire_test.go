package push

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pdagent/internal/compress"
)

// wireEntries covers what a mailbox body can hold: a result document
// whose text contains "]]>" (the CDATA split), markup-special notes, an
// attribute that needs escaping and an empty body.
func wireEntries() []*Entry {
	return []*Entry{
		{Seq: 3, Kind: KindResult, AgentID: "ag-1", EventID: "result:ag-1",
			Body: []byte(`<?xml version="1.0"?><result-document agent="ag-1">a & b ]]> c</result-document>`), Enqueued: time.Unix(12, 34)},
		{Seq: 5, Kind: KindStatus, AgentID: `ag-"2"`, EventID: "status:ag-2", Body: []byte("disposed & gone")},
		{Seq: 6, Kind: KindStatus, AgentID: "ag-3", EventID: "note:ag-3"},
	}
}

// preFrameAnswer is wireEntries' mailbox answer as a gateway rendered it
// before answers were framed: raw XML, bodies escaped as text.
const preFrameAnswer = `<?xml version="1.0" encoding="UTF-8"?><mailbox device="alice" next="6" evicted="2">` +
	`<entry seq="3" kind="result" agent="ag-1" event="result:ag-1" enq="12000000034">&lt;?xml version="1.0"?&gt;&lt;result-document agent="ag-1"&gt;a &amp; b ]]&gt; c&lt;/result-document&gt;</entry>` +
	`<entry seq="5" kind="status" agent="ag-&quot;2&quot;" event="status:ag-2" enq="-6795364578871345152">disposed &amp; gone</entry>` +
	`<entry seq="6" kind="status" agent="ag-3" event="note:ag-3" enq="-6795364578871345152"/></mailbox>`

// TestExportBytesUnchanged pins the /cluster/ migration document byte
// for byte to what the node-tree encoder wrote, so members of either
// build read each other's exports.
func TestExportBytesUnchanged(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{string(EncodeExport("al<ice>", wireEntries(), 6, "tok-1", "acme")),
			`<?xml version="1.0" encoding="UTF-8"?><mailbox device="al&lt;ice&gt;" next="6" evicted="0" token="tok-1" tenant="acme">` +
				`<entry seq="3" kind="result" agent="ag-1" event="result:ag-1" enq="12000000034">&lt;?xml version="1.0"?&gt;&lt;result-document agent="ag-1"&gt;a &amp; b ]]&gt; c&lt;/result-document&gt;</entry>` +
				`<entry seq="5" kind="status" agent="ag-&quot;2&quot;" event="status:ag-2" enq="-6795364578871345152">disposed &amp; gone</entry>` +
				`<entry seq="6" kind="status" agent="ag-3" event="note:ag-3" enq="-6795364578871345152"/></mailbox>`},
		{string(EncodeExport("alice", nil, 0, "", "")),
			`<?xml version="1.0" encoding="UTF-8"?><mailbox device="alice" next="0" evicted="0"/>`},
	} {
		if tc.got != tc.want {
			t.Errorf("export =\n%s\nwant\n%s", tc.got, tc.want)
		}
	}
}

// TestDeliveryIsOneLZSSFrame: what a device receives is an LZSS frame of
// exactly EncodeEntries' document, whose bodies ride as CDATA and which
// carries no enqueue times; it parses to the entries that went in, as
// does the raw document and the pre-frame answer an older gateway sends
// (enqueue times included).
func TestDeliveryIsOneLZSSFrame(t *testing.T) {
	in := wireEntries()
	frame := EncodeDelivery("alice", in, 6, 2)
	doc := EncodeEntries("alice", in, 6, 2)
	if c, err := compress.FrameCodec(frame); err != nil || c != compress.LZSS {
		t.Fatalf("delivery codec = %v, %v; want one LZSS frame", c, err)
	}
	if dec, err := compress.Decode(frame); err != nil || !bytes.Equal(dec, doc) {
		t.Fatalf("frame decodes to %q (%v), want EncodeEntries' document %q", dec, err, doc)
	}
	if !bytes.Contains(doc, []byte(`<![CDATA[<?xml version="1.0"?><result-document agent="ag-1">a & b ]]]]><![CDATA[> c</result-document>]]>`)) {
		t.Fatalf("result body not written as split CDATA: %s", doc)
	}
	if len(frame) >= len(preFrameAnswer) {
		t.Fatalf("delivery is %d bytes, the pre-frame answer %d", len(frame), len(preFrameAnswer))
	}
	if bytes.Contains(doc, []byte(`enq=`)) {
		t.Fatalf("device document carries enqueue times: %s", doc)
	}
	for name, body := range map[string][]byte{"frame": frame, "raw": doc, "pre-frame answer": []byte(preFrameAnswer)} {
		dev, out, watermark, evicted, token, tenant, err := ParseEntries(body)
		if err != nil || dev != "alice" || watermark != 6 || evicted != 2 || token != "" || tenant != "" {
			t.Fatalf("%s: device %q watermark %d evicted %d token %q tenant %q, %v", name, dev, watermark, evicted, token, tenant, err)
		}
		if len(out) != len(in) {
			t.Fatalf("%s: %d entries, want %d", name, len(out), len(in))
		}
		for i := range in {
			want := *in[i]
			if name != "pre-frame answer" {
				want.Enqueued = time.Time{} // not on the device's wire
			} else if want.Enqueued.IsZero() {
				want.Enqueued = out[i].Enqueued // a zero time travels as its (overflowed) UnixNano
			}
			if !want.Enqueued.Equal(out[i].Enqueued) || want.Seq != out[i].Seq || want.Kind != out[i].Kind ||
				want.AgentID != out[i].AgentID || want.EventID != out[i].EventID || !bytes.Equal(want.Body, out[i].Body) {
				t.Fatalf("%s: entry %d = %+v, want %+v", name, i, out[i], want)
			}
		}
	}
}

// allocatedBy reports the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// overDeclared is a frame whose header claims one byte more than
// compress.MaxDecodedSize.
func overDeclared() []byte {
	return append(binary.AppendUvarint([]byte{'Z', byte(compress.LZSS)}, compress.MaxDecodedSize+1), 0xFF, '<', 'm', '/', '>')
}

// TestParseEntriesRefusesOverDeclaredFrame: a mailbox answer whose frame
// declares past compress.MaxDecodedSize is refused as corrupt without
// allocating for it.
func TestParseEntriesRefusesOverDeclaredFrame(t *testing.T) {
	var err error
	if n := allocatedBy(func() { _, _, _, _, _, _, err = ParseEntries(overDeclared()) }); n > 1<<16 {
		t.Fatalf("refusing the frame allocated %d bytes", n)
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("ParseEntries err = %v, want compress.ErrCorrupt", err)
	}
}

// parsed is everything ParseEntries returns, for comparing two parses.
type parsed struct {
	device, token, tenant string
	entries               []*Entry
	watermark, evicted    uint64
	err                   error
}

func parse(b []byte) (p parsed) {
	p.device, p.entries, p.watermark, p.evicted, p.token, p.tenant, p.err = ParseEntries(b)
	return p
}

// FuzzParseEntries throws at the device's mailbox decoder what another
// host may answer — raw documents, frames, exports. No input panics or
// allocates more than a fixed multiple of its own length plus the size
// it declares; a frame declaring past compress.MaxDecodedSize is
// refused; and any raw input parses exactly as its own LZSS frame does.
func FuzzParseEntries(f *testing.F) {
	in := wireEntries()
	flate, _ := compress.Encode(compress.Flate, EncodeEntries("bob", in[:1], 3, 0))
	for _, s := range [][]byte{
		EncodeEntries("alice", in, 6, 2),
		EncodeDelivery("alice", in, 6, 2),
		EncodeDelivery("alice", nil, 0, 0),
		EncodeExport("alice", in, 6, "tok-1", "acme"),
		[]byte(preFrameAnswer),
		flate,
		overDeclared(),
		[]byte(`<mailbox><entry seq="x"/></mailbox>`),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p parsed
		n := allocatedBy(func() { p = parse(data) })
		declared := uint64(0)
		if compress.IsFrame(data) && len(data) > 2 {
			if size, k := binary.Uvarint(data[2:]); k > 0 {
				if size > compress.MaxDecodedSize && p.err == nil {
					t.Fatalf("a frame declaring %d bytes parsed", size)
				}
				declared = min(size, compress.MaxDecodedSize)
			}
		}
		if bound := 128*(uint64(len(data))+declared) + 1<<20; n > bound {
			t.Fatalf("parsing %d bytes (declaring %d) allocated %d, bound %d", len(data), declared, n, bound)
		}
		if compress.IsFrame(data) {
			return
		}
		framed, err := compress.Encode(compress.LZSS, data)
		if err != nil {
			t.Fatal(err)
		}
		pf := parse(framed)
		if (p.err == nil) != (pf.err == nil) {
			t.Fatalf("raw parse err %v, framed parse err %v", p.err, pf.err)
		}
		if p.err == nil && !reflect.DeepEqual(p, pf) {
			t.Fatalf("raw and framed parses differ:\n%+v\n%+v", p, pf)
		}
	})
}
