package atp

import (
	"bytes"
	"encoding/base64"
	"strings"
	"testing"

	"pdagent/internal/kxml"
)

// The encoders as they were before AppendEncode, kept as the reference
// the append encoders must match byte for byte.

func refAgletsEncode(im *Image) []byte {
	var b bytes.Buffer
	b.Write(agletsMagic)
	field := func(data []byte) {
		b.Write([]byte{byte(len(data) >> 24), byte(len(data) >> 16), byte(len(data) >> 8), byte(len(data))})
		b.Write(data)
	}
	for _, s := range []string{im.AgentID, im.Home, im.CodeID, im.Owner} {
		field([]byte(s))
	}
	field(im.Program)
	field(im.State)
	return b.Bytes()
}

func refVoyagerEncode(im *Image) []byte {
	root := kxml.NewElement("voyager-agent")
	root.SetAttr("id", im.AgentID)
	root.SetAttr("home", im.Home)
	root.SetAttr("code-id", im.CodeID)
	root.SetAttr("owner", im.Owner)
	root.AddElement("program").AddText(base64.StdEncoding.EncodeToString(im.Program))
	root.AddElement("state").AddText(base64.StdEncoding.EncodeToString(im.State))
	return root.EncodeDocument()
}

// TestAppendEncodeMatchesReference: both flavours' append encoders write
// exactly the bytes the reference encoders wrote — real agents, empty
// optional fields, attribute values that need escaping, payloads of
// every length mod 3 — whatever dst already holds.
func TestAppendEncodeMatchesReference(t *testing.T) {
	real := realImage(t)
	images := []*Image{
		real,
		{AgentID: "a", Home: "h", Program: []byte{1}, State: []byte{2}},
		{AgentID: `ag-"q"&<x>`, Home: "gw\t0\n\r", CodeID: "c'1", Owner: "o&o",
			Program: bytes.Repeat([]byte{0xff, 0}, 1000), State: []byte("ab")},
		{AgentID: strings.Repeat("x", 300), Home: "h", CodeID: "c", Owner: "o",
			Program: real.Program[:len(real.Program)-1], State: real.State[:len(real.State)-2]},
	}
	refs := map[string]func(*Image) []byte{"aglets": refAgletsEncode, "voyager": refVoyagerEncode}
	for _, c := range codecs() {
		for i, im := range images {
			want := refs[c.Name()](im)
			got, err := c.Encode(im)
			if err != nil {
				t.Fatalf("%s image %d: %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s image %d:\n got %q\nwant %q", c.Name(), i, got, want)
			}
			prefix := []byte("prefix")
			appended, err := c.AppendEncode(prefix, im)
			if err != nil || !bytes.Equal(appended, append([]byte("prefix"), want...)) {
				t.Fatalf("%s image %d: AppendEncode after a prefix: %q, %v", c.Name(), i, appended, err)
			}
		}
	}
}

// TestDecodeAliasesPayload: an aglets image's payloads are the request
// body's own bytes, capped so an append cannot run into the next field.
func TestDecodeAliasesPayload(t *testing.T) {
	im := realImage(t)
	data, _ := AgletsCodec{}.Encode(im)
	got, err := AgletsCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	end := &data[len(data)-1]
	if &got.State[len(got.State)-1] != end {
		t.Error("aglets state does not alias the envelope")
	}
	if cap(got.Program) != len(got.Program) {
		t.Errorf("aglets program capacity %d past its %d bytes", cap(got.Program), len(got.Program))
	}
}
