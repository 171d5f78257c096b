package kxml

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// EventType identifies the kind of event the pull parser produced.
type EventType int

// Pull-parser event kinds, mirroring kXML's XmlPullParser constants.
const (
	StartDocument EventType = iota
	EndDocument
	StartElement
	EndElement
	Text
	CData
	Comment
	ProcInst
)

func (t EventType) String() string {
	switch t {
	case StartDocument:
		return "StartDocument"
	case EndDocument:
		return "EndDocument"
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	case CData:
		return "CData"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one pull-parser event. Name is set for Start/EndElement and
// ProcInst (the target); Attrs for StartElement; Text for Text, CData,
// Comment and ProcInst (the instruction body).
type Event struct {
	Type      EventType
	Name      string
	Attrs     []Attr
	Text      string
	Line, Col int
	// SelfClose marks a StartElement that was written as <name/>; the
	// parser still synthesises the matching EndElement event.
	SelfClose bool
}

// MaxDepth bounds element nesting to keep hostile documents from
// exhausting the stack.
const MaxDepth = 256

// MaxAttrs bounds the attributes of one element, so the duplicate check
// each new attribute makes against the earlier ones stays cheap: without
// it one 1 MiB start tag of 100k attributes costs seconds of CPU. No
// document of this system writes more than a dozen.
const MaxAttrs = 64

// Parser is a streaming pull parser over an input document.
type Parser struct {
	src       []byte
	pos       int
	line, col int

	stack   []string // open element names
	started bool
	done    bool
	pending *Event // synthesised EndElement for self-closing tags
}

// NewParser returns a parser reading the whole of r up front. Documents
// in this system are bounded (PIs are a few kilobytes), so slurping is
// both simpler and faster than incremental decoding.
func NewParser(r io.Reader) (*Parser, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("kxml: reading input: %w", err)
	}
	return NewParserBytes(b), nil
}

// NewParserBytes returns a parser over the given document bytes.
func NewParserBytes(b []byte) *Parser {
	return &Parser{src: b, line: 1, col: 1}
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) eof() bool { return p.pos >= len(p.src) }

func (p *Parser) peek() byte { return p.src[p.pos] }

func (p *Parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *Parser) skipSpace() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

func (p *Parser) hasPrefix(s string) bool {
	if len(p.src)-p.pos < len(s) {
		return false
	}
	// Compare in place; converting the whole tail to a string here
	// would make readUntil quadratic.
	return string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *Parser) consume(s string) bool {
	if !p.hasPrefix(s) {
		return false
	}
	for range s {
		p.advance()
	}
	return true
}

// readUntil consumes input until the terminator string, returning the
// text before it. The terminator itself is consumed.
func (p *Parser) readUntil(term string) (string, error) {
	start := p.pos
	for !p.eof() {
		if p.hasPrefix(term) {
			text := string(p.src[start:p.pos])
			p.consume(term)
			return text, nil
		}
		p.advance()
	}
	return "", p.errf("unterminated construct, expected %q", term)
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *Parser) readName() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected name")
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return internName(p.src[start:p.pos]), nil
}

// internName maps the element and attribute names of the PDAgent
// dialect to shared string constants, so scanning a tag allocates
// nothing on the pull fast path. The switch comparisons do not convert
// b to a heap string; only unknown names pay the allocation.
func internName(b []byte) string {
	switch string(b) {
	case "packed-information":
		return "packed-information"
	case "code":
		return "code"
	case "params":
		return "params"
	case "param":
		return "param"
	case "value":
		return "value"
	case "entry":
		return "entry"
	case "name":
		return "name"
	case "type":
		return "type"
	case "key":
		return "key"
	case "code-id":
		return "code-id"
	case "owner":
		return "owner"
	case "nonce":
		return "nonce"
	case "result-document":
		return "result-document"
	case "result":
		return "result"
	case "error":
		return "error"
	case "agent":
		return "agent"
	case "status":
		return "status"
	case "hops":
		return "hops"
	case "steps":
		return "steps"
	case "subscription":
		return "subscription"
	case "code-package":
		return "code-package"
	case "description":
		return "description"
	case "source":
		return "source"
	case "secret":
		return "secret"
	case "gateway-key":
		return "gateway-key"
	case "gateway":
		return "gateway"
	case "gateway-list":
		return "gateway-list"
	case "catalogue":
		return "catalogue"
	case "id":
		return "id"
	case "version":
		return "version"
	case "addr":
		return "addr"
	case "state":
		return "state"
	case "moved-to":
		return "moved-to"
	case "mas":
		return "mas"
	case "service":
		return "service"
	case "xml":
		return "xml"
	}
	return string(b)
}

// Next returns the next event, or io.EOF after EndDocument was returned.
func (p *Parser) Next() (Event, error) {
	if p.pending != nil {
		ev := *p.pending
		p.pending = nil
		return ev, nil
	}
	if p.done {
		return Event{}, io.EOF
	}
	if !p.started {
		p.started = true
		return Event{Type: StartDocument, Line: p.line, Col: p.col}, nil
	}

	// Outside any element, whitespace between constructs is skipped.
	if len(p.stack) == 0 {
		p.skipSpace()
	}
	if p.eof() {
		if len(p.stack) > 0 {
			return Event{}, p.errf("unexpected end of document inside <%s>", p.stack[len(p.stack)-1])
		}
		p.done = true
		return Event{Type: EndDocument, Line: p.line, Col: p.col}, nil
	}

	line, col := p.line, p.col
	if p.peek() != '<' {
		text, err := p.readText()
		if err != nil {
			return Event{}, err
		}
		if len(p.stack) == 0 {
			return Event{}, &SyntaxError{Line: line, Col: col, Msg: "character data outside root element"}
		}
		return Event{Type: Text, Text: text, Line: line, Col: col}, nil
	}

	switch {
	case p.consume("<!--"):
		text, err := p.readUntil("-->")
		if err != nil {
			return Event{}, err
		}
		return Event{Type: Comment, Text: text, Line: line, Col: col}, nil
	case p.consume("<![CDATA["):
		if len(p.stack) == 0 {
			return Event{}, &SyntaxError{Line: line, Col: col, Msg: "CDATA outside root element"}
		}
		text, err := p.readUntil("]]>")
		if err != nil {
			return Event{}, err
		}
		return Event{Type: CData, Text: text, Line: line, Col: col}, nil
	case p.consume("<?"):
		return p.readProcInst(line, col)
	case p.consume("<!"):
		// DOCTYPE (or other declaration): skip, tracking bracket nesting.
		if err := p.skipDecl(); err != nil {
			return Event{}, err
		}
		return p.Next()
	case p.consume("</"):
		return p.readEndTag(line, col)
	default:
		p.advance() // consume '<'
		return p.readStartTag(line, col)
	}
}

// RawText consumes the character data at the parser's position inside
// an element when it holds no entity reference, and returns it without
// copying: the bytes alias the input, which must not change while they
// are in use. Anywhere else — markup next, a reference in the text,
// outside the root — it reports false and consumes nothing; Next then
// reads what follows as before.
func (p *Parser) RawText() ([]byte, bool) {
	if p.pending != nil || !p.started || len(p.stack) == 0 {
		return nil, false
	}
	end := p.pos
	for end < len(p.src) && p.src[end] != '<' {
		if p.src[end] == '&' {
			return nil, false
		}
		end++
	}
	if end == p.pos {
		return nil, false
	}
	start := p.pos
	for p.pos < end {
		p.advance()
	}
	return p.src[start:end], true
}

func (p *Parser) readProcInst(line, col int) (Event, error) {
	target, err := p.readName()
	if err != nil {
		return Event{}, err
	}
	body, err := p.readUntil("?>")
	if err != nil {
		return Event{}, err
	}
	return Event{Type: ProcInst, Name: target, Text: strings.TrimSpace(body), Line: line, Col: col}, nil
}

func (p *Parser) skipDecl() error {
	depth := 1
	for !p.eof() {
		switch p.advance() {
		case '<':
			depth++
		case '>':
			depth--
			if depth == 0 {
				return nil
			}
		}
	}
	return p.errf("unterminated declaration")
}

func (p *Parser) readStartTag(line, col int) (Event, error) {
	name, err := p.readName()
	if err != nil {
		return Event{}, err
	}
	var attrs []Attr
	for {
		p.skipSpace()
		if p.eof() {
			return Event{}, p.errf("unterminated start tag <%s", name)
		}
		if p.consume("/>") {
			if len(p.stack) >= MaxDepth {
				return Event{}, p.errf("element nesting exceeds %d", MaxDepth)
			}
			p.pending = &Event{Type: EndElement, Name: name, Line: p.line, Col: p.col}
			return Event{Type: StartElement, Name: name, Attrs: attrs, Line: line, Col: col, SelfClose: true}, nil
		}
		if p.peek() == '>' {
			p.advance()
			if len(p.stack) >= MaxDepth {
				return Event{}, p.errf("element nesting exceeds %d", MaxDepth)
			}
			p.stack = append(p.stack, name)
			return Event{Type: StartElement, Name: name, Attrs: attrs, Line: line, Col: col}, nil
		}
		if len(attrs) == MaxAttrs {
			return Event{}, p.errf("element <%s> has more than %d attributes", name, MaxAttrs)
		}
		attr, err := p.readAttr()
		if err != nil {
			return Event{}, err
		}
		for _, a := range attrs {
			if a.Name == attr.Name {
				return Event{}, p.errf("duplicate attribute %q on <%s>", attr.Name, name)
			}
		}
		attrs = append(attrs, attr)
	}
}

func (p *Parser) readAttr() (Attr, error) {
	name, err := p.readName()
	if err != nil {
		return Attr{}, err
	}
	p.skipSpace()
	if p.eof() || p.peek() != '=' {
		return Attr{}, p.errf("expected '=' after attribute %q", name)
	}
	p.advance()
	p.skipSpace()
	if p.eof() || (p.peek() != '"' && p.peek() != '\'') {
		return Attr{}, p.errf("expected quoted value for attribute %q", name)
	}
	quote := p.advance()
	start := p.pos
	for !p.eof() && p.peek() != quote {
		if p.peek() == '<' {
			return Attr{}, p.errf("'<' in attribute value of %q", name)
		}
		p.advance()
	}
	if p.eof() {
		return Attr{}, p.errf("unterminated value for attribute %q", name)
	}
	raw := string(p.src[start:p.pos])
	p.advance() // closing quote
	val, err := Unescape(raw)
	if err != nil {
		return Attr{}, p.errf("attribute %q: %v", name, err)
	}
	return Attr{Name: name, Value: val}, nil
}

func (p *Parser) readEndTag(line, col int) (Event, error) {
	name, err := p.readName()
	if err != nil {
		return Event{}, err
	}
	p.skipSpace()
	if p.eof() || p.peek() != '>' {
		return Event{}, p.errf("malformed end tag </%s", name)
	}
	p.advance()
	if len(p.stack) == 0 {
		return Event{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected end tag </%s>", name)}
	}
	open := p.stack[len(p.stack)-1]
	if open != name {
		return Event{}, &SyntaxError{Line: line, Col: col,
			Msg: fmt.Sprintf("end tag </%s> does not match open <%s>", name, open)}
	}
	p.stack = p.stack[:len(p.stack)-1]
	return Event{Type: EndElement, Name: name, Line: line, Col: col}, nil
}

func (p *Parser) readText() (string, error) {
	start := p.pos
	for !p.eof() && p.peek() != '<' {
		p.advance()
	}
	return Unescape(string(p.src[start:p.pos]))
}

// Parse reads a whole document and returns its root element. Comments
// and processing instructions are dropped; CDATA becomes text; adjacent
// text runs are preserved as written.
func Parse(r io.Reader) (*Node, error) {
	p, err := NewParser(r)
	if err != nil {
		return nil, err
	}
	return buildTree(p)
}

// ParseBytes is Parse over an in-memory document.
func ParseBytes(b []byte) (*Node, error) {
	return buildTree(NewParserBytes(b))
}

// ParseString is Parse over a string document.
func ParseString(s string) (*Node, error) {
	return buildTree(NewParserBytes([]byte(s)))
}

func buildTree(p *Parser) (*Node, error) {
	var root *Node
	var stack []*Node
	for {
		ev, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Type {
		case StartElement:
			nodeAllocs.Add(1)
			n := &Node{Name: ev.Name, Attrs: ev.Attrs}
			if len(stack) == 0 {
				if root != nil {
					return nil, &SyntaxError{Line: ev.Line, Col: ev.Col, Msg: "multiple root elements"}
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case EndElement:
			stack = stack[:len(stack)-1]
		case Text, CData:
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, NewText(ev.Text))
			}
		case EndDocument:
			if root == nil {
				return nil, ErrNoElement
			}
			return root, nil
		}
	}
	if root == nil {
		return nil, ErrNoElement
	}
	return root, nil
}

// Unescape expands the five predefined XML entities plus decimal and
// hexadecimal character references.
func Unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", fmt.Errorf("unterminated entity near %q", s[i:min(i+10, len(s))])
		}
		ent := s[i+1 : i+end]
		switch {
		case ent == "amp":
			b.WriteByte('&')
		case ent == "lt":
			b.WriteByte('<')
		case ent == "gt":
			b.WriteByte('>')
		case ent == "quot":
			b.WriteByte('"')
		case ent == "apos":
			b.WriteByte('\'')
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			v, err := strconv.ParseUint(ent[2:], 16, 32)
			if err != nil || !utf8.ValidRune(rune(v)) {
				return "", fmt.Errorf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(v))
		case strings.HasPrefix(ent, "#"):
			v, err := strconv.ParseUint(ent[1:], 10, 32)
			if err != nil || !utf8.ValidRune(rune(v)) {
				return "", fmt.Errorf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(v))
		default:
			return "", fmt.Errorf("unknown entity &%s;", ent)
		}
		i += end + 1
	}
	return b.String(), nil
}
