package kxml

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleDocument(t *testing.T) {
	for _, doc := range []string{
		`<?xml version="1.0"?><pi id="42"><code lang="mascript">x</code><param name="to">bank-a</param></pi>`,
		// Indented: whitespace between elements is text the lookups skip.
		"<?xml version=\"1.0\"?>\n<pi id=\"42\">\n  <code lang=\"mascript\">x</code>\n  <param name=\"to\">bank-a</param>\n</pi>\n",
	} {
		root, err := ParseString(doc)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", doc, err)
		}
		if root.Name != "pi" {
			t.Fatalf("root name = %q, want pi", root.Name)
		}
		if v, ok := root.Attr("id"); !ok || v != "42" {
			t.Fatalf("id attr = %q,%v", v, ok)
		}
		if got := root.ChildText("code"); got != "x" {
			t.Fatalf("code text = %q", got)
		}
		p := root.Find("param")
		if p == nil {
			t.Fatal("param child missing")
		}
		if v, _ := p.Attr("name"); v != "to" {
			t.Fatalf("param name = %q", v)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	doc := `<m a="&lt;&gt;&amp;&quot;&apos;">&#65;&#x42;c &amp; d</m>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if v, _ := root.Attr("a"); v != `<>&"'` {
		t.Fatalf("attr = %q", v)
	}
	if got := root.TextContent(); got != "ABc & d" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	for doc, want := range map[string]string{
		`<r><!-- a comment --><![CDATA[<raw> & unescaped]]></r>`: "<raw> & unescaped",
		// "]]>" inside character data travels as two adjacent sections.
		`<r><![CDATA[x]]]]><![CDATA[>y]]></r>`: "x]]>y",
	} {
		root, err := ParseString(doc)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", doc, err)
		}
		if got := root.TextContent(); got != want {
			t.Fatalf("cdata text of %q = %q, want %q", doc, got, want)
		}
	}
}

func TestParseSelfClosing(t *testing.T) {
	root, err := ParseString(`<a><b/><c x="1"/></a>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if root.Children[0].Name != "b" || root.Children[1].Name != "c" {
		t.Fatalf("child names = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	doc := `<!DOCTYPE pi [<!ELEMENT pi (code)>]><pi><code>k</code></pi>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if root.Name != "pi" {
		t.Fatalf("root = %q", root.Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"empty", ""},
		{"unclosed", "<a><b></a>"},
		{"mismatch", "<a></b>"},
		{"stray end", "</a>"},
		{"two roots", "<a/><b/>"},
		{"text outside root", "hello<a/>"},
		{"bad entity", "<a>&bogus;</a>"},
		{"unterminated entity", "<a>&amp</a>"},
		{"dup attr", `<a x="1" x="2"/>`},
		{"attr missing eq", `<a x "1"/>`},
		{"attr unquoted", `<a x=1/>`},
		{"lt in attr", `<a x="<"/>`},
		{"unterminated comment", "<a><!-- x</a>"},
		{"unterminated cdata", "<a><![CDATA[x</a>"},
		{"eof in tag", "<a"},
		{"bad char ref", "<a>&#xZZ;</a>"},
		{"cdata outside root", "<![CDATA[x]]><a/>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.doc); err == nil {
				t.Fatalf("ParseString(%q) succeeded, want error", tc.doc)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := ParseString("<a>\n  <b></c>\n</a>")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 2 {
		t.Fatalf("line = %d, want 2", se.Line)
	}
}

func TestPullEvents(t *testing.T) {
	p := NewParserBytes([]byte(`<?xml version="1.0"?><a x="1">t<b/></a>`))
	var types []EventType
	var names []string
	for {
		ev, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		types = append(types, ev.Type)
		names = append(names, ev.Name)
	}
	want := []EventType{StartDocument, ProcInst, StartElement, Text, StartElement, EndElement, EndElement, EndDocument}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	if names[2] != "a" || names[4] != "b" || names[5] != "b" || names[6] != "a" {
		t.Fatalf("names = %v", names)
	}
}

func TestDepthLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < MaxDepth+1; i++ {
		b.WriteString("<a>")
	}
	if _, err := ParseString(b.String()); err == nil {
		t.Fatal("expected depth-limit error")
	}
}

func TestAttrLimit(t *testing.T) {
	tag := func(n int) string {
		var b strings.Builder
		b.WriteString("<a")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, ` a%d=""`, i)
		}
		b.WriteString("/>")
		return b.String()
	}
	if root, err := ParseString(tag(MaxAttrs)); err != nil || len(root.Attrs) != MaxAttrs {
		t.Fatalf("element with MaxAttrs attributes: %v", err)
	}
	if _, err := ParseString(tag(MaxAttrs + 1)); err == nil || !strings.Contains(err.Error(), "attributes") {
		t.Fatalf("element with MaxAttrs+1 attributes: err = %v, want the cap", err)
	}
}

func TestNodeHelpers(t *testing.T) {
	root := NewElement("pi").SetAttr("id", "1")
	root.AddElement("code").AddText("body")
	root.AddElement("param").SetAttr("name", "a").AddText("1")
	root.AddElement("param").SetAttr("name", "b").AddText("2")

	if root.Find("missing") != nil {
		t.Fatal("Find(missing) != nil")
	}
	if got := len(root.FindAll("param")); got != 2 {
		t.Fatalf("FindAll = %d", got)
	}
	if got := root.Path("code"); got == nil || got.TextContent() != "body" {
		t.Fatalf("Path(code) = %v", got)
	}
	if root.Path("code", "missing") != nil {
		t.Fatal("Path through missing should be nil")
	}
	if got := root.AttrDefault("id", "x"); got != "1" {
		t.Fatalf("AttrDefault = %q", got)
	}
	if got := root.AttrDefault("nope", "x"); got != "x" {
		t.Fatalf("AttrDefault fallback = %q", got)
	}

	clone := root.Clone()
	if !root.Equal(clone) {
		t.Fatal("clone not equal to original")
	}
	clone.SetAttr("id", "9")
	if v, _ := root.Attr("id"); v != "1" {
		t.Fatal("mutating clone affected original")
	}
	if root.Equal(clone) {
		t.Fatal("Equal should detect attr difference")
	}
}

// genNode builds a random tree for property tests.
func genNode(r *rand.Rand, depth int) *Node {
	n := NewElement(randName(r))
	for i := 0; i < r.Intn(3); i++ {
		n.SetAttr(randName(r)+string(rune('a'+i)), randText(r))
	}
	kids := r.Intn(4)
	for i := 0; i < kids; i++ {
		if depth <= 0 || r.Intn(2) == 0 {
			if t := randText(r); t != "" {
				n.Add(NewText(t))
			}
		} else {
			n.Add(genNode(r, depth-1))
		}
	}
	return n
}

func randName(r *rand.Rand) string {
	const letters = "abcdefghijklmnop"
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func randText(r *rand.Rand) string {
	const alphabet = "ab<>&\"' \tλ日=;#x2"
	runes := []rune(alphabet)
	n := r.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = runes[r.Intn(len(runes))]
	}
	return string(out)
}

// normalize merges adjacent text children so trees compare equal after a
// round-trip (the writer may merge what the generator kept separate).
func normalize(n *Node) *Node {
	out := &Node{Name: n.Name, Attrs: n.Attrs, Text: n.Text}
	var textRun strings.Builder
	flush := func() {
		if textRun.Len() > 0 {
			out.Children = append(out.Children, NewText(textRun.String()))
			textRun.Reset()
		}
	}
	for _, c := range n.Children {
		if c.IsText() {
			textRun.WriteString(c.Text)
			continue
		}
		flush()
		out.Children = append(out.Children, normalize(c))
	}
	flush()
	return out
}

func TestPropertyTreeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		tree := genNode(r, 4)
		doc := tree.Encode()
		back, err := ParseBytes(doc)
		if err != nil {
			t.Fatalf("iter %d: reparse: %v\ndoc: %s", i, err, doc)
		}
		want, got := normalize(tree), normalize(back)
		if !want.Equal(got) {
			t.Fatalf("iter %d: round-trip mismatch\nwant %s\ngot  %s", i, want, got)
		}
	}
}

func TestQuickEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !strings.Contains(s, "\r") { // bare CR is normalised by XML rules; our writer escapes only in attrs
			got, err := Unescape(EscapeText(s))
			if err != nil || got != s {
				return false
			}
		}
		got, err := Unescape(EscapeAttr(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDocumentHasDeclaration(t *testing.T) {
	n := NewElement("a")
	doc := n.EncodeDocument()
	if !strings.HasPrefix(string(doc), "<?xml") {
		t.Fatalf("EncodeDocument = %q", doc)
	}
	if _, err := ParseBytes(doc); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestNamespacePrefixPassthrough(t *testing.T) {
	// kXML passes namespace prefixes through as literal names; so do we.
	doc := `<soap:Envelope xmlns:soap="http://example/soap"><soap:Body attr:x="1">v</soap:Body></soap:Envelope>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if root.Name != "soap:Envelope" {
		t.Fatalf("root = %q", root.Name)
	}
	if v, ok := root.Attr("xmlns:soap"); !ok || v != "http://example/soap" {
		t.Fatalf("xmlns attr = %q,%v", v, ok)
	}
	body := root.Find("soap:Body")
	if body == nil || body.TextContent() != "v" {
		t.Fatalf("body = %v", body)
	}
	// Round-trips.
	back, err := ParseBytes(root.Encode())
	if err != nil || !root.Equal(back) {
		t.Fatalf("prefix round-trip: %v", err)
	}
}

func TestUTF8Content(t *testing.T) {
	doc := `<msg lang="日本語">héllo — 世界 ✓</msg>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if got := root.TextContent(); got != "héllo — 世界 ✓" {
		t.Fatalf("text = %q", got)
	}
	if v, _ := root.Attr("lang"); v != "日本語" {
		t.Fatalf("attr = %q", v)
	}
	back, err := ParseBytes(root.Encode())
	if err != nil || !root.Equal(back) {
		t.Fatalf("utf8 round-trip: %v", err)
	}
}

func TestWhitespacePreservedInsideElements(t *testing.T) {
	root, err := ParseString("<a>  two  spaces  </a>")
	if err != nil {
		t.Fatal(err)
	}
	if got := root.TextContent(); got != "  two  spaces  " {
		t.Fatalf("text = %q", got)
	}
}

func TestSortAttrs(t *testing.T) {
	n := NewElement("a").SetAttr("z", "1").SetAttr("a", "2")
	c := n.AddElement("b").SetAttr("m", "3").SetAttr("b", "4")
	n.SortAttrs()
	if n.Attrs[0].Name != "a" || n.Attrs[1].Name != "z" {
		t.Fatalf("attrs not sorted: %v", n.Attrs)
	}
	if c.Attrs[0].Name != "b" {
		t.Fatalf("child attrs not sorted: %v", c.Attrs)
	}
}
