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

// TestDeliveryIsOneFlateFrame: what a device receives is a DEFLATE
// frame — plain, or primed with the platform's markup — of exactly
// EncodeEntries' document, whose bodies ride as CDATA and which carries
// no enqueue times; it parses to the entries that went in, as do the
// raw document, the LZSS frame a gateway sent before answers were
// DEFLATE and the pre-frame answer of a gateway older still (enqueue
// times included).
func TestDeliveryIsOneFlateFrame(t *testing.T) {
	in := wireEntries()
	frame := EncodeDelivery(compress.Flate, "alice", in, 6, 2)
	dict := EncodeDelivery(compress.FlateDict, "alice", in, 6, 2)
	doc := EncodeEntries("alice", in, 6, 2)
	lzss, err := compress.Encode(compress.LZSS, doc)
	if err != nil {
		t.Fatal(err)
	}
	for codec, f := range map[compress.Codec][]byte{compress.Flate: frame, compress.FlateDict: dict} {
		if c, err := compress.FrameCodec(f); err != nil || c != codec {
			t.Fatalf("delivery codec = %v, %v; want one %v frame", c, err, codec)
		}
		if dec, err := compress.Decode(f); err != nil || !bytes.Equal(dec, doc) {
			t.Fatalf("%v frame decodes to %q (%v), want EncodeEntries' document %q", codec, dec, err, doc)
		}
	}
	if len(dict) >= len(frame) {
		t.Fatalf("the primed frame is %d bytes, the plain one %d", len(dict), len(frame))
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
	for name, body := range map[string][]byte{"frame": frame, "flate-dict frame": dict, "raw": doc, "lzss frame": lzss, "pre-frame answer": []byte(preFrameAnswer)} {
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

// TestDeliveryKeepsItsEncoderAcrossGC: the DEFLATE encoders a mailbox
// answer is written with (plain and primed, each 16 KiB of hash heads
// plus ≈ 9 B per byte of dictionary and input: chain link, window byte
// and token) survive garbage collection, so an answer after a GC
// allocates its document and its frame, not a new encoder.
func TestDeliveryKeepsItsEncoderAcrossGC(t *testing.T) {
	in := wireEntries()
	for _, codec := range []compress.Codec{compress.Flate, compress.FlateDict} {
		EncodeDelivery(codec, "alice", in, 6, 2)
		runtime.GC()
		runtime.GC() // a sync.Pool drops what it held on the second
		if n := allocatedBy(func() { EncodeDelivery(codec, "alice", in, 6, 2) }); n > 64<<10 {
			t.Fatalf("a %v mailbox answer after a GC allocated %d bytes: a new encoder", codec, n)
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
// refused; and any raw input parses exactly as its own frame does under
// every codec a gateway answers with: DEFLATE primed with the
// platform's markup, plain DEFLATE, and the LZSS of older gateways.
func FuzzParseEntries(f *testing.F) {
	in := wireEntries()
	lzss, _ := compress.Encode(compress.LZSS, EncodeEntries("bob", in[:1], 3, 0))
	for _, s := range [][]byte{
		EncodeEntries("alice", in, 6, 2),
		EncodeDelivery(compress.Flate, "alice", in, 6, 2),
		EncodeDelivery(compress.Flate, "alice", in[:1], 3, 0),
		EncodeDelivery(compress.Flate, "alice", nil, 0, 0),
		EncodeDelivery(compress.FlateDict, "alice", in, 6, 2),
		EncodeDelivery(compress.FlateDict, "alice", in[:1], 3, 0),
		EncodeDelivery(compress.FlateDict, "alice", nil, 0, 0),
		EncodeExport("alice", in, 6, "tok-1", "acme"),
		[]byte(preFrameAnswer),
		lzss,
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
		for _, codec := range []compress.Codec{compress.FlateDict, compress.Flate, compress.LZSS} {
			framed, err := compress.Encode(codec, data)
			if err != nil {
				t.Fatal(err)
			}
			pf := parse(framed)
			if (p.err == nil) != (pf.err == nil) {
				t.Fatalf("raw parse err %v, %v-framed parse err %v", p.err, codec, pf.err)
			}
			if p.err == nil && !reflect.DeepEqual(p, pf) {
				t.Fatalf("raw and %v-framed parses differ:\n%+v\n%+v", codec, p, pf)
			}
		}
	})
}
