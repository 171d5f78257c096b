package kxml

import "bytes"

// needsTextEscape reports whether s contains character-data specials.
func needsTextEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&', '<', '>':
			return true
		}
	}
	return false
}

// needsAttrEscape reports whether s contains attribute-value specials.
func needsAttrEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&', '<', '>', '"', '\n', '\t', '\r':
			return true
		}
	}
	return false
}

// AppendEscapedText appends s to dst escaped as character data and
// returns the extended slice. It is the allocation-free counterpart of
// EscapeText for append-style encoders.
func AppendEscapedText(dst []byte, s string) []byte {
	if !needsTextEscape(s) {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// AppendEscapedAttr appends s to dst escaped for a double-quoted
// attribute value and returns the extended slice.
func AppendEscapedAttr(dst []byte, s string) []byte {
	if !needsAttrEscape(s) {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '\n':
			dst = append(dst, "&#10;"...)
		case '\t':
			dst = append(dst, "&#9;"...)
		case '\r':
			dst = append(dst, "&#13;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// EscapeText escapes character data for inclusion between tags. Strings
// without specials are returned unchanged (no allocation).
func EscapeText(s string) string {
	if !needsTextEscape(s) {
		return s
	}
	return string(AppendEscapedText(make([]byte, 0, len(s)+8), s))
}

// EscapeAttr escapes an attribute value for inclusion in double quotes.
// Strings without specials are returned unchanged (no allocation).
func EscapeAttr(s string) string {
	if !needsAttrEscape(s) {
		return s
	}
	return string(AppendEscapedAttr(make([]byte, 0, len(s)+8), s))
}

func writeNode(b *bytes.Buffer, n *Node) {
	if n.IsText() {
		b.WriteString(EscapeText(n.Text))
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString("=\"")
		b.WriteString(EscapeAttr(a.Value))
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		writeNode(b, c)
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
}

// Encode returns the compact serialised bytes of the subtree.
func (n *Node) Encode() []byte {
	var b bytes.Buffer
	writeNode(&b, n)
	return b.Bytes()
}

// String returns the compact serialised form of the subtree.
func (n *Node) String() string { return string(n.Encode()) }

// EncodeDocument returns the subtree serialised with an XML declaration
// prefix — the form PDAgent sends on the wire.
func (n *Node) EncodeDocument() []byte {
	var b bytes.Buffer
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>")
	writeNode(&b, n)
	return b.Bytes()
}
