// Package kxml is a minimal XML library modelled on the kXML pull parser
// the PDAgent paper uses on the handheld (J2ME) side.
//
// It provides two layers and an encoder:
//
//   - a streaming pull Parser emitting events (StartElement, Text, ...),
//     mirroring kXML's XmlPullParser;
//   - a DOM-lite Node tree built on top of the pull parser, used for the
//     Packed Information and result documents;
//   - Node.Encode and the Append* escapers, serialising trees (and the
//     wire package's append-style encoders) back to XML text.
//
// The dialect is deliberately small — elements, attributes, character
// data, CDATA, comments, processing instructions and a skipped DOCTYPE —
// which matches what kXML 1.x offered to MIDP applications. Namespaces
// are passed through as literal prefixes.
package kxml

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Attr is a single name="value" attribute. Order is preserved so that
// documents round-trip byte-identically modulo whitespace.
type Attr struct {
	Name  string
	Value string
}

// Node is an element or a text node in the DOM-lite tree. Element nodes
// have a non-empty Name; text nodes have Name == "" and carry Text.
type Node struct {
	Name     string
	Attrs    []Attr
	Children []*Node
	Text     string
}

// nodeAllocs counts every Node this package allocates, process-wide.
// The wire package's fast-path decoders are required to build no DOM at
// all; its zero-DOM tests read this counter around a decode to prove
// it. The counter only ticks on the (now cold) tree paths, so the
// atomic add never sits on a hot loop.
var nodeAllocs atomic.Uint64

// NodeAllocs returns the number of Nodes allocated so far. The absolute
// value is meaningless; deltas around a region of interest are the
// point.
func NodeAllocs() uint64 { return nodeAllocs.Load() }

// NewElement returns an element node with the given name.
func NewElement(name string) *Node {
	nodeAllocs.Add(1)
	return &Node{Name: name}
}

// NewText returns a text node with the given character data.
func NewText(text string) *Node {
	nodeAllocs.Add(1)
	return &Node{Text: text}
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// SetAttr sets (or replaces) an attribute and returns n for chaining.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the named attribute value or def if absent.
func (n *Node) AttrDefault(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// Add appends child nodes and returns n for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// AddText appends a text child and returns n for chaining.
func (n *Node) AddText(text string) *Node {
	return n.Add(NewText(text))
}

// AddElement creates, appends and returns a new child element.
func (n *Node) AddElement(name string) *Node {
	c := NewElement(name)
	n.Add(c)
	return c
}

// Find returns the first child element with the given name, or nil.
func (n *Node) Find(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FindAll returns all child elements with the given name.
func (n *Node) FindAll(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Path descends through successive child names and returns the final
// element, or nil if any step is missing.
func (n *Node) Path(names ...string) *Node {
	cur := n
	for _, name := range names {
		if cur = cur.Find(name); cur == nil {
			return nil
		}
	}
	return cur
}

// TextContent concatenates the text of n and all its descendants.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.IsText() {
		b.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// ChildText returns the text content of the first child element with the
// given name, or "" if there is none.
func (n *Node) ChildText(name string) string {
	c := n.Find(name)
	if c == nil {
		return ""
	}
	return c.TextContent()
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	nodeAllocs.Add(1)
	out := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		out.Attrs = append([]Attr(nil), n.Attrs...)
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	return out
}

// Equal reports deep structural equality of two subtrees.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Name != o.Name || n.Text != o.Text ||
		len(n.Attrs) != len(o.Attrs) || len(n.Children) != len(o.Children) {
		return false
	}
	for i := range n.Attrs {
		if n.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// SortAttrs orders attributes by name, recursively. Useful in tests that
// compare documents produced by different writers.
func (n *Node) SortAttrs() {
	sort.Slice(n.Attrs, func(i, j int) bool { return n.Attrs[i].Name < n.Attrs[j].Name })
	for _, c := range n.Children {
		if !c.IsText() {
			c.SortAttrs()
		}
	}
}

// ErrNoElement is returned by Parse when the document holds no element.
var ErrNoElement = errors.New("kxml: document contains no root element")

// A SyntaxError describes a malformed document with position info.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("kxml: %d:%d: %s", e.Line, e.Col, e.Msg)
}
