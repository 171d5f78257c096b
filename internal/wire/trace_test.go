package wire

import (
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	td := &TraceDoc{
		TraceID: "ag-0042",
		Spans: []TraceSpan{
			{Member: "gw-0", Op: "dispatch", Detail: "echo", At: 100, Seq: 1},
			{Member: "gw-1", Op: "admit", Detail: `e<&>"scaped`, At: 200, Seq: 0},
			{Member: "bank-a", Op: "transfer-in", At: 300, Seq: 7},
		},
	}
	doc := td.EncodeXML()
	got, err := ParseTrace(doc)
	if err != nil {
		t.Fatalf("ParseTrace: %v\n%s", err, doc)
	}
	if !reflect.DeepEqual(got, td) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, td)
	}
}

func TestTraceParseErrors(t *testing.T) {
	cases := map[string]string{
		"wrong root": `<not-a-trace id="x"/>`,
		"missing id": `<trace><span member="a" op="b"/></trace>`,
		"span no op": `<trace id="x"><span member="a"/></trace>`,
		"truncated":  `<trace id="x"><span member="a" op="b"`,
		"not xml":    `hello`,
		"empty":      ``,
	}
	for name, doc := range cases {
		if _, err := ParseTrace([]byte(doc)); err == nil {
			t.Errorf("%s: parse accepted %q", name, doc)
		}
	}
}

func TestTraceSkipsUnknownChildren(t *testing.T) {
	doc := `<trace id="x"><future a="1"><nested/></future><span member="a" op="b" at="5" seq="2"/></trace>`
	td, err := ParseTrace([]byte(doc))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(td.Spans) != 1 || td.Spans[0].At != 5 {
		t.Fatalf("spans = %+v", td.Spans)
	}
}

func TestTraceEmpty(t *testing.T) {
	td := &TraceDoc{TraceID: "ag-1"}
	got, err := ParseTrace(td.EncodeXML())
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if got.TraceID != "ag-1" || len(got.Spans) != 0 {
		t.Fatalf("got %+v", got)
	}
	if !strings.HasPrefix(string(td.EncodeXML()), xmlDecl) {
		t.Fatalf("missing xml declaration")
	}
}

// FuzzParseTrace fuzzes the trace decoder a gateway runs on the answer
// of a peer member or MAS host: it never panics, and a document it
// accepts re-encodes with AppendXML and parses back to the same
// TraceDoc.
func FuzzParseTrace(f *testing.F) {
	f.Add((&TraceDoc{
		TraceID: "ag-0042",
		Spans: []TraceSpan{
			{Member: "gw-0", Op: "dispatch", Detail: "echo", At: 100, Seq: 1},
			{Member: "gw-1", Op: "admit", Detail: `e<&>"scaped`, At: -200},
		},
	}).EncodeXML())
	f.Add([]byte(`<trace id="x"><future a="1"><nested/></future><span member="a" op="b" at="5" seq="2"/></trace>`))
	f.Add([]byte(`<trace id="x"><span member="a" op="b" at="9223372036854775808" seq="-1"/></trace>`))
	f.Add([]byte(`<trace id="x"><span member="a&#9;b" op="&#10;" detail="&amp;"/></trace>`))
	f.Add([]byte(`<trace id="x"><span member="a"/></trace>`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		td, err := ParseTrace(doc)
		if err != nil {
			return
		}
		again, err := ParseTrace(td.AppendXML(nil))
		if err != nil {
			t.Fatalf("re-encoded trace does not parse: %v\n%s", err, td.AppendXML(nil))
		}
		if !reflect.DeepEqual(again, td) {
			t.Fatalf("trace changed in a round trip:\n got %+v\nwant %+v", again, td)
		}
	})
}
