package wire

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"pdagent/internal/compress"
	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
)

func sampleValue() mavm.Value {
	inner := mavm.NewMap()
	inner.MapEntries()["n"] = mavm.Int(-5)
	inner.MapEntries()["f"] = mavm.Float(2.5)
	inner.MapEntries()["s"] = mavm.Str("x <&> y")
	inner.MapEntries()["b"] = mavm.Bool(true)
	inner.MapEntries()["nil"] = mavm.Nil()
	return mavm.NewList(mavm.Int(1), mavm.Str("two"), inner, mavm.NewList())
}

func TestValueXMLRoundTrip(t *testing.T) {
	v := sampleValue()
	n, err := ValueToXML(v)
	if err != nil {
		t.Fatalf("ValueToXML: %v", err)
	}
	back, err := ValueFromXML(n)
	if err != nil {
		t.Fatalf("ValueFromXML: %v", err)
	}
	if !v.Equal(back) {
		t.Fatalf("round-trip mismatch:\n  in  %v\n  out %v", v, back)
	}
}

func TestValueXMLDepthLimit(t *testing.T) {
	v := mavm.Int(1)
	for i := 0; i < maxValueDepth+2; i++ {
		v = mavm.NewList(v)
	}
	if _, err := ValueToXML(v); err == nil {
		t.Fatal("over-deep value encoded")
	}
}

func TestValueFromXMLErrors(t *testing.T) {
	if _, err := ValueFromXML(nil); err == nil {
		t.Error("nil node accepted")
	}
	bad := []string{
		`<value type="alien">x</value>`,
		`<value type="int">zebra</value>`,
		`<value type="bool">maybe</value>`,
		`<value type="float">one</value>`,
		`<value type="map"><entry><value type="int">1</value></entry></value>`,
	}
	for _, doc := range bad {
		n, err := kxml.ParseString(doc)
		if err != nil {
			t.Fatalf("setup parse: %v", err)
		}
		if _, err := ValueFromXML(n); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

func TestPackedInformationRoundTrip(t *testing.T) {
	nonce, err := NewNonce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pi := &PackedInformation{
		CodeID:      "code-9",
		DispatchKey: "abcdef0123456789",
		Owner:       "device-1",
		Nonce:       nonce,
		Source:      `migrate("bank-a"); deliver("x", 1);`,
		Params: map[string]mavm.Value{
			"banks":  mavm.NewList(mavm.Str("bank-a"), mavm.Str("bank-b")),
			"amount": mavm.Int(250),
		},
	}
	doc, err := pi.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePackedInformation(doc)
	if err != nil {
		t.Fatalf("ParsePackedInformation: %v", err)
	}
	if back.CodeID != pi.CodeID || back.DispatchKey != pi.DispatchKey ||
		back.Owner != pi.Owner || back.Source != pi.Source || back.Nonce != pi.Nonce {
		t.Fatalf("fields changed: %+v", back)
	}
	if n2, _ := NewNonce(context.Background()); n2 == nonce || len(n2) != 32 {
		t.Fatalf("nonces not unique/sized: %q vs %q", nonce, n2)
	}
	if !back.Params["banks"].Equal(pi.Params["banks"]) || !back.Params["amount"].Equal(pi.Params["amount"]) {
		t.Fatalf("params changed: %v", back.Params)
	}
}

// TestUnpackRefusesAttributeFlood: a dispatch body whose start tag is a
// 256 KiB run of attributes (about 62 KB once compressed) is refused by
// the attribute cap before any duplicate check grows quadratic.
func TestUnpackRefusesAttributeFlood(t *testing.T) {
	doc := []byte(`<?xml version="1.0" encoding="UTF-8"?><packed-information`)
	for i := 0; len(doc) < 256<<10; i++ {
		doc = fmt.Appendf(doc, ` a%d=""`, i)
	}
	doc = append(doc, `></packed-information>`...)
	body, err := compress.Encode(compress.Flate, doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(body, nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d attributes", kxml.MaxAttrs)) {
		t.Fatalf("Unpack of a %d B attribute flood: err = %v, want the attribute cap", len(body), err)
	}
}

func TestParsePackedInformationErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":      "not xml at all",
		"wrong root":   "<other/>",
		"missing id":   `<packed-information><code>x</code></packed-information>`,
		"missing code": `<packed-information code-id="c"></packed-information>`,
	}
	for name, doc := range cases {
		if _, err := ParsePackedInformation([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPackedInformationByReference covers the reference form: a PI that
// names its code by hash omits the <code> element, round-trips the
// hash, and is still refused when it carries neither code nor hash.
func TestPackedInformationByReference(t *testing.T) {
	src := `migrate("bank-a"); deliver("x", 1);`
	h := CodeHash(src)
	if len(h) != 16 || h != CodeHash(src) || h == CodeHash(src+" ") {
		t.Fatalf("CodeHash(%q) = %q: want a stable 16-hex-digit digest", src, h)
	}
	ref := &PackedInformation{CodeID: "code-9", DispatchKey: "k", Owner: "dev", Nonce: "n-1", CodeHash: h}
	doc, err := ref.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(doc, []byte("<code")) || !bytes.Contains(doc, []byte(`code-hash="`+h+`"`)) {
		t.Fatalf("reference form encodes as %s", doc)
	}
	back, err := Unpack(mustPack(t, ref), nil)
	if err != nil {
		t.Fatalf("Unpack(reference form): %v", err)
	}
	if back.CodeHash != h || back.Source != "" || back.Nonce != "n-1" {
		t.Fatalf("reference form round-tripped to %+v", back)
	}

	both := *ref
	both.Source = src
	if back, err = Unpack(mustPack(t, &both), nil); err != nil || back.CodeHash != h || back.Source != src {
		t.Fatalf("hash plus code round-tripped to %+v (%v)", back, err)
	}

	neither := *ref
	neither.CodeHash = ""
	doc, err = neither.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePackedInformation(doc); err == nil {
		t.Fatalf("PI with neither code nor hash accepted: %s", doc)
	}
}

func mustPack(t *testing.T, pi *PackedInformation) []byte {
	t.Helper()
	body, err := Pack(pi, compress.LZSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestPackUnpackAllModes(t *testing.T) {
	kp, err := pisec.GenerateKeyPair(1024) // small key: test speed
	if err != nil {
		t.Fatal(err)
	}
	pi := &PackedInformation{
		CodeID:      "code-1",
		DispatchKey: "k",
		Owner:       "dev",
		Source:      strings.Repeat(`service("bank.transfer", "a", "b", 1); `, 40),
		Params:      map[string]mavm.Value{"n": mavm.Int(1)},
	}
	for _, codec := range []compress.Codec{compress.None, compress.LZSS, compress.Flate} {
		for _, sealed := range []bool{false, true} {
			var key *pisec.PublicKey
			if sealed {
				key = kp.Public()
			}
			body, err := Pack(pi, codec, key)
			if err != nil {
				t.Fatalf("Pack(%v,sealed=%v): %v", codec, sealed, err)
			}
			back, err := Unpack(body, kp)
			if err != nil {
				t.Fatalf("Unpack(%v,sealed=%v): %v", codec, sealed, err)
			}
			if back.Source != pi.Source {
				t.Fatalf("source changed (%v, sealed=%v)", codec, sealed)
			}
		}
	}
}

func TestPackCompressionShrinksWire(t *testing.T) {
	pi := &PackedInformation{
		CodeID: "c", DispatchKey: "k", Owner: "o",
		Source: strings.Repeat(`let r = service("bank.transfer", param("from"), param("to"), param("amt")); `, 50),
	}
	raw, err := Pack(pi, compress.None, nil)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := Pack(pi, compress.LZSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lz) >= len(raw)/2 {
		t.Fatalf("LZSS pack %d vs raw %d, expected at least 2x", len(lz), len(raw))
	}
}

func TestUnpackTamperedEnvelopeFails(t *testing.T) {
	kp, _ := pisec.GenerateKeyPair(1024)
	pi := &PackedInformation{CodeID: "c", DispatchKey: "k", Owner: "o", Source: "deliver(\"x\", 1);"}
	body, err := Pack(pi, compress.LZSS, kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] ^= 1
	if _, err := Unpack(body, kp); err == nil {
		t.Fatal("tampered PI accepted")
	}
	// Sealed body without a key pair at the gateway.
	good, _ := Pack(pi, compress.LZSS, kp.Public())
	if _, err := Unpack(good, nil); err == nil {
		t.Fatal("sealed PI opened without key")
	}
}

func TestResultDocumentRoundTrip(t *testing.T) {
	rd := &ResultDocument{
		AgentID: "ag-7",
		CodeID:  "code-1",
		Owner:   "dev-1",
		Status:  "done",
		Hops:    3,
		Steps:   12345,
		Results: []mavm.Result{
			{Key: "receipts", Value: mavm.NewList(mavm.Str("tx-1"), mavm.Str("tx-2"))},
			{Key: "count", Value: mavm.Int(2)},
			{Key: "count", Value: mavm.Int(3)}, // duplicate keys preserved in order
		},
	}
	doc, err := rd.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseResultDocument(doc)
	if err != nil {
		t.Fatalf("ParseResultDocument: %v", err)
	}
	if back.AgentID != rd.AgentID || back.Status != rd.Status || back.Hops != 3 || back.Steps != 12345 {
		t.Fatalf("fields changed: %+v", back)
	}
	if len(back.Results) != 3 || back.Results[2].Value.AsInt() != 3 {
		t.Fatalf("results changed: %+v", back.Results)
	}
	if v, ok := back.Get("count"); !ok || v.AsInt() != 2 {
		t.Fatalf("Get(count) = %v, %v (want first)", v, ok)
	}
	if !back.OK() {
		t.Fatal("OK() false for done")
	}

	failed := &ResultDocument{AgentID: "a", Status: "failed", Error: "bank refused"}
	doc2, _ := failed.EncodeXML()
	back2, err := ParseResultDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.OK() || back2.Error != "bank refused" {
		t.Fatalf("failed doc: %+v", back2)
	}
}

func TestSubscriptionRoundTrip(t *testing.T) {
	sub := &Subscription{
		Package: &CodePackage{
			CodeID: "code-1", Name: "e-banking", Version: "1.2",
			Description: "bank tour", Source: "deliver(\"x\", 1);",
		},
		Secret:     []byte{1, 2, 3, 4, 5, 6, 7, 8},
		GatewayKey: "BASE64KEY",
		Gateway:    "gw-0",
	}
	doc, err := sub.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSubscription(doc)
	if err != nil {
		t.Fatalf("ParseSubscription: %v", err)
	}
	if back.Package.CodeID != "code-1" || back.Package.Source != sub.Package.Source {
		t.Fatalf("package changed: %+v", back.Package)
	}
	if !bytes.Equal(back.Secret, sub.Secret) || back.GatewayKey != "BASE64KEY" || back.Gateway != "gw-0" {
		t.Fatalf("subscription changed: %+v", back)
	}
}

func TestCatalogueRoundTrip(t *testing.T) {
	c := &Catalogue{
		Gateway: "gw-1",
		Packages: []*CodePackage{
			{CodeID: "a", Name: "App A", Version: "1", Description: "first", Source: "x"},
			{CodeID: "b", Name: "App B", Version: "2", Description: "second", Source: "y"},
		},
	}
	gw, entries, err := ParseCatalogue(c.EncodeXML())
	if err != nil {
		t.Fatal(err)
	}
	if gw != "gw-1" || len(entries) != 2 || entries[1].Name != "App B" {
		t.Fatalf("catalogue = %q %+v", gw, entries)
	}
}

func TestGatewayListRoundTrip(t *testing.T) {
	gl := &GatewayList{Addresses: []string{"gw-0", "gw-1", "gw-2"}}
	back, err := ParseGatewayList(gl.EncodeXML())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Addresses) != 3 || back.Addresses[2] != "gw-2" {
		t.Fatalf("list = %+v", back)
	}
	if _, err := ParseGatewayList([]byte("<wrong/>")); err == nil {
		t.Error("wrong root accepted")
	}
}
