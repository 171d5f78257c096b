// Package atp implements the Agent Transfer Protocol: the wire format
// a mobile agent travels in between mobile-agent servers (and between
// the gateway and MAS hosts).
//
// The paper's claim (i) is that PDAgent "supports the adoption of any
// kind of mobile agent system at network hosts" — the gateway wraps the
// user's MA code "into a mobile agent in a form supported by the
// network sites". To exercise that adapter machinery this package
// provides two interchangeable codec flavours:
//
//   - "aglets": a compact binary envelope in the spirit of IBM Aglets'
//     ATP (the MAS brand the paper's prototype used);
//   - "voyager": an XML envelope in the spirit of ObjectSpace Voyager's
//     text-first formats.
//
// A host speaks exactly one flavour; senders discover it via the
// /atp/hello handshake and encode accordingly, which is the same
// adaptation the paper's Agent Creator performs.
package atp

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"pdagent/internal/kxml"
)

// Image is a complete mobile agent in transit: its identity plus the
// serialised program and VM state.
type Image struct {
	// AgentID is the globally unique agent identifier. It doubles as
	// the journey's trace id (DESIGN.md §11): minted once at dispatch,
	// it already rides every transfer image, result document and
	// mailbox event on the itinerary, so tracing adds no identifier to
	// the wire protocol.
	AgentID string
	// Home is the gateway address the agent returns results to.
	Home string
	// CodeID is the subscription code-package id the agent was built
	// from (paper §3.1).
	CodeID string
	// Owner identifies the dispatching device/user.
	Owner string
	// Program is the mavm.MarshalProgram encoding of the agent's code.
	Program []byte
	// State is the mavm.MarshalState encoding of the agent's execution
	// state.
	State []byte
}

// Validate checks the identity fields and payload presence.
func (im *Image) Validate() error {
	if im.AgentID == "" {
		return fmt.Errorf("atp: image missing agent id")
	}
	if im.Home == "" {
		return fmt.Errorf("atp: image %s missing home", im.AgentID)
	}
	if len(im.Program) == 0 {
		return fmt.Errorf("atp: image %s missing program", im.AgentID)
	}
	if len(im.State) == 0 {
		return fmt.Errorf("atp: image %s missing state", im.AgentID)
	}
	return nil
}

// Codec converts agent images to and from one MAS flavour's wire form.
type Codec interface {
	// Name is the flavour identifier used in the /atp/hello handshake.
	Name() string
	// Encode serialises an image into a buffer of its own.
	Encode(im *Image) ([]byte, error)
	// AppendEncode appends the encoding of im to dst and returns the
	// extended slice, growing dst at most once.
	AppendEncode(dst []byte, im *Image) ([]byte, error)
	// Decode parses an image and validates it. The image's Program and
	// State may alias data, which must not change while they are in use.
	Decode(data []byte) (*Image, error)
}

// ByName returns the codec for a flavour name.
func ByName(name string) (Codec, error) {
	switch name {
	case "aglets":
		return AgletsCodec{}, nil
	case "voyager":
		return VoyagerCodec{}, nil
	default:
		return nil, fmt.Errorf("atp: unknown MAS flavour %q", name)
	}
}

// Flavours lists the supported codec names.
func Flavours() []string { return []string{"aglets", "voyager"} }

// MaxImageSize bounds decode input.
const MaxImageSize = 16 << 20

// --- aglets flavour: binary --------------------------------------------

// AgletsCodec is the binary flavour.
type AgletsCodec struct{}

var agletsMagic = []byte("ATPA1")

// Name implements Codec.
func (AgletsCodec) Name() string { return "aglets" }

// Encode implements Codec.
func (c AgletsCodec) Encode(im *Image) ([]byte, error) { return c.AppendEncode(nil, im) }

// AppendEncode implements Codec. The envelope's size is known up front,
// so dst grows once, to exactly that.
func (AgletsCodec) AppendEncode(dst []byte, im *Image) ([]byte, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	strs := [...]string{im.AgentID, im.Home, im.CodeID, im.Owner}
	n := len(agletsMagic) + 4*6 + len(im.Program) + len(im.State)
	for _, f := range strs {
		n += len(f)
	}
	b := append(slices.Grow(dst, n), agletsMagic...)
	for _, f := range strs {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	for _, f := range [...][]byte{im.Program, im.State} {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	return b, nil
}

// Decode implements Codec.
func (AgletsCodec) Decode(data []byte) (*Image, error) {
	if len(data) > MaxImageSize {
		return nil, fmt.Errorf("atp: image of %d bytes exceeds limit", len(data))
	}
	if len(data) < len(agletsMagic) || !bytes.Equal(data[:len(agletsMagic)], agletsMagic) {
		return nil, fmt.Errorf("atp: bad aglets envelope magic")
	}
	rest := data[len(agletsMagic):]
	var fields [6][]byte
	for i := range fields {
		var f []byte
		var err error
		f, rest, err = readLenPrefixed(rest)
		if err != nil {
			return nil, fmt.Errorf("atp: aglets envelope field %d: %w", i, err)
		}
		fields[i] = f
	}
	im := &Image{
		AgentID: string(fields[0]),
		Home:    string(fields[1]),
		CodeID:  string(fields[2]),
		Owner:   string(fields[3]),
		Program: fields[4],
		State:   fields[5],
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}

// readLenPrefixed splits one length-prefixed field off data. field
// aliases data, its capacity cut at its end.
func readLenPrefixed(data []byte) (field, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("truncated length")
	}
	n := int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if n < 0 || n > len(data)-4 {
		return nil, nil, fmt.Errorf("field length %d out of range", n)
	}
	return data[4 : 4+n : 4+n], data[4+n:], nil
}

// --- voyager flavour: XML ----------------------------------------------

// VoyagerCodec is the XML flavour.
type VoyagerCodec struct{}

// Name implements Codec.
func (VoyagerCodec) Name() string { return "voyager" }

// Encode implements Codec.
func (c VoyagerCodec) Encode(im *Image) ([]byte, error) { return c.AppendEncode(nil, im) }

// voyagerDecl is the XML declaration every voyager envelope starts with.
const voyagerDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// AppendEncode implements Codec. It writes the document directly —
// declaration, root with its four attributes, then <program> and
// <state> as base64 text, which never needs escaping — and grows dst
// once, by the document's size when no attribute needs escaping.
func (VoyagerCodec) AppendEncode(dst []byte, im *Image) ([]byte, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	enc := base64.StdEncoding
	attrs := [...]struct{ name, value string }{
		{"id", im.AgentID}, {"home", im.Home}, {"code-id", im.CodeID}, {"owner", im.Owner},
	}
	n := len(voyagerDecl) + len("<voyager-agent><program></program><state></state></voyager-agent>") +
		enc.EncodedLen(len(im.Program)) + enc.EncodedLen(len(im.State))
	for _, a := range attrs {
		n += len(` =""`) + len(a.name) + len(a.value)
	}
	b := append(slices.Grow(dst, n), voyagerDecl+"<voyager-agent"...)
	for _, a := range attrs {
		b = append(append(append(b, ' '), a.name...), `="`...)
		b = append(kxml.AppendEscapedAttr(b, a.value), '"')
	}
	b = enc.AppendEncode(append(b, "><program>"...), im.Program)
	b = enc.AppendEncode(append(b, "</program><state>"...), im.State)
	return append(b, "</state></voyager-agent>"...), nil
}

// Decode implements Codec. It pull-parses exactly the shape Encode
// writes — the root and its four attributes, then <program> and <state>
// holding text, whitespace allowed between elements — and refuses the
// envelope at the first event that departs from it, so no body builds
// a node tree.
func (VoyagerCodec) Decode(data []byte) (*Image, error) {
	if len(data) > MaxImageSize {
		return nil, fmt.Errorf("atp: image of %d bytes exceeds limit", len(data))
	}
	im, err := decodeVoyager(kxml.NewParserBytes(data), len(data))
	if err != nil {
		return nil, fmt.Errorf("atp: voyager envelope: %w", err)
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}

func decodeVoyager(p *kxml.Parser, size int) (*Image, error) {
	var ev kxml.Event
	var err error
	// next moves ev on, past whitespace between elements.
	next := func() {
		for err == nil {
			if ev, err = p.Next(); err != nil || ev.Type != kxml.Text || strings.TrimSpace(ev.Text) != "" {
				return
			}
		}
	}
	// want checks that ev is the typ event named name.
	want := func(typ kxml.EventType, name string) bool {
		if err == nil && (ev.Type != typ || ev.Name != name) {
			err = fmt.Errorf("%d:%d: %v %q where %v %q belongs", ev.Line, ev.Col, ev.Type, ev.Name, typ, name)
		}
		return err == nil
	}
	im := &Image{}
	// Both payloads decode into one buffer, sized for the whole input:
	// base64 text is never shorter than what it decodes to.
	var payload []byte
	next() // StartDocument
	if next(); ev.Type == kxml.ProcInst && ev.Name == "xml" {
		next()
	}
	if want(kxml.StartElement, "voyager-agent") {
		fields := map[string]*string{"id": &im.AgentID, "home": &im.Home, "code-id": &im.CodeID, "owner": &im.Owner}
		for _, a := range ev.Attrs {
			if fields[a.Name] == nil {
				return nil, fmt.Errorf("unknown attribute %q", a.Name)
			}
			*fields[a.Name] = a.Value
		}
	}
	for _, f := range [...]struct {
		name string
		dst  *[]byte
	}{{"program", &im.Program}, {"state", &im.State}} {
		next()
		if !want(kxml.StartElement, f.name) {
			break
		}
		// The payload is base64, which needs no entity references: read
		// it where it lies; anything else goes through Next as text.
		text, raw := p.RawText()
		if next(); !raw && err == nil && ev.Type == kxml.Text {
			text = []byte(ev.Text)
			next()
		}
		if text != nil {
			if payload == nil {
				payload = make([]byte, 0, base64.StdEncoding.DecodedLen(size))
			}
			from := len(payload)
			if payload, err = base64.StdEncoding.AppendDecode(payload, text); err != nil {
				return nil, fmt.Errorf("%s payload: %w", f.name, err)
			}
			*f.dst = payload[from:len(payload):len(payload)]
		}
		want(kxml.EndElement, f.name)
	}
	next()
	want(kxml.EndElement, "voyager-agent")
	next()
	want(kxml.EndDocument, "")
	return im, err
}
