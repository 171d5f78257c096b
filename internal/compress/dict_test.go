package compress_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"

	"pdagent/internal/compress"
	"pdagent/internal/mavm"
	"pdagent/internal/push"
	"pdagent/internal/wire"
)

// TestFlateDictionaryFrozen pins the preset dictionary. A device
// decodes codec 3 with the copy it was built with, so a changed
// dictionary makes old devices mis-decode every answer: change it under
// a new codec id, never in place.
func TestFlateDictionaryFrozen(t *testing.T) {
	const want = "8c289e82605a0d54df6e1ed6a4c094e57161014e2077eb1fc1d09ed97d9b7183"
	sum := sha256.Sum256(compress.FlateDictionary)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("flate-dict dictionary SHA-256 = %s, want %s (%d bytes)", got, want, len(compress.FlateDictionary))
	}
}

// placeholder marks what a caller supplies — names, ids, numbers — in
// the documents below, so what is left between placeholders is the
// markup the encoder itself writes; element cuts that markup before
// every '<'.
var (
	placeholder = regexp.MustCompile(`@|7`)
	element     = regexp.MustCompile(`<?[^<]+`)
)

// TestFlateDictionaryHoldsPlatformMarkup renders every element the
// three encoders of a mailbox answer write — push's device-form mailbox
// document, wire's result document and its values of every type — with
// placeholder content, and checks that each piece of markup between
// placeholders, cut at element starts, occurs in the dictionary.
func TestFlateDictionaryHoldsPlatformMarkup(t *testing.T) {
	m := mavm.NewMap()
	m.MapEntries()["@"] = mavm.Int(7)
	values := []mavm.Value{
		mavm.Nil(), mavm.Bool(true), mavm.Bool(false), mavm.Int(7), mavm.Float(7), mavm.Str("@"),
		mavm.NewList(), mavm.NewMap(), mavm.NewList(mavm.Int(7)), m,
	}
	var docs [][]byte
	for _, v := range values {
		doc, err := wire.AppendValueXML(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	for _, rd := range []*wire.ResultDocument{
		{AgentID: "ag-@", CodeID: "@", Owner: "@", Status: "done", Hops: 7, Steps: 7,
			Results: []mavm.Result{{Key: "@", Value: mavm.Int(7)}, {Key: "@", Value: mavm.Int(7)}}},
		{AgentID: "ag-@", CodeID: "@", Owner: "@", Status: "done", Hops: 7, Steps: 7, Error: "@"},
		{AgentID: "ag-@", CodeID: "@", Owner: "@", Status: "done", Hops: 7, Steps: 7},
	} {
		doc, err := rd.EncodeXML()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	docs = append(docs,
		push.EncodeEntries("@", []*push.Entry{
			{Seq: 7, Kind: push.KindResult, AgentID: "ag-@", EventID: "result:ag-@", Body: []byte("@")},
			{Seq: 7, Kind: push.KindStatus, AgentID: "ag-@", EventID: "@", Body: []byte("@")},
			{Seq: 7, Kind: push.KindManage, AgentID: "ag-@", EventID: "@"},
		}, 7, 7),
		push.EncodeEntries("@", nil, 7, 7))
	for _, doc := range docs {
		for _, markup := range placeholder.Split(string(doc), -1) {
			for _, piece := range element.FindAllString(markup, -1) {
				if !bytes.Contains(compress.FlateDictionary, []byte(piece)) {
					t.Errorf("%q (from %q) is not in the dictionary", piece, doc)
				}
			}
		}
	}
}
