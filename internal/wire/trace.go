package wire

import (
	"fmt"
	"strconv"
)

// TraceSpan is one itinerary hop in a trace document (DESIGN.md §11):
// which member saw the journey, what it did, and when. The trace id
// itself is the agent id — it already rides every wire document on
// the journey's path, so tracing adds no new identifiers to the
// protocol.
type TraceSpan struct {
	// Member is the gateway or MAS host that recorded the span.
	Member string
	// Op names the hop (dispatch, forward, admit, admit-failed,
	// transfer-out, transfer-in, deliver, result, relay-result,
	// adopt-result, mailbox, shed).
	Op string
	// Detail carries the op's object: code id, target address,
	// origin member, owner, shed reason.
	Detail string
	// At is the recording member's wall clock, unix nanoseconds.
	At int64
	// Seq breaks At ties among spans from the same member.
	Seq uint64
}

// TraceDoc is the wire form of a reconstructed (or member-local)
// itinerary: the spans `/pdagent/trace/{id}` serves, whole or (with
// "scope: local") as one member's or host's share.
type TraceDoc struct {
	// TraceID is the journey's trace id (the agent id).
	TraceID string
	// Spans are the hops, in the order the encoder emitted them.
	Spans []TraceSpan
}

// AppendXML appends the trace document to dst and returns the
// extended slice.
func (td *TraceDoc) AppendXML(dst []byte) []byte {
	dst = append(dst, xmlDecl...)
	dst = append(dst, "<trace"...)
	dst = appendAttr(dst, "id", td.TraceID)
	dst = append(dst, '>')
	for i := range td.Spans {
		sp := &td.Spans[i]
		dst = append(dst, "<span"...)
		dst = appendAttr(dst, "member", sp.Member)
		dst = appendAttr(dst, "op", sp.Op)
		if sp.Detail != "" {
			dst = appendAttr(dst, "detail", sp.Detail)
		}
		dst = append(dst, " at=\""...)
		dst = strconv.AppendInt(dst, sp.At, 10)
		dst = append(dst, "\" seq=\""...)
		dst = strconv.AppendUint(dst, sp.Seq, 10)
		dst = append(dst, "\"/>"...)
	}
	return append(dst, "</trace>"...)
}

// EncodeXML renders the trace document into a fresh buffer.
func (td *TraceDoc) EncodeXML() []byte { return td.AppendXML(nil) }

// ParseTrace parses a trace document on the zero-DOM fast path (no
// *kxml.Node tree; see pull.go).
func ParseTrace(doc []byte) (*TraceDoc, error) {
	s := newScanner(doc)
	root, err := s.root("trace", "trace document")
	if err != nil {
		return nil, err
	}
	td := &TraceDoc{TraceID: evAttrDefault(root, "id", "")}
	if td.TraceID == "" {
		return nil, fmt.Errorf("wire: trace document missing id")
	}
	for {
		ev, ok, err := s.child()
		if err != nil {
			return nil, fmt.Errorf("wire: trace document: %w", err)
		}
		if !ok {
			break
		}
		if ev.Name != "span" {
			if err := s.skip(); err != nil {
				return nil, fmt.Errorf("wire: trace document: %w", err)
			}
			continue
		}
		at, _ := strconv.ParseInt(evAttrDefault(ev, "at", "0"), 10, 64)
		seq, _ := strconv.ParseUint(evAttrDefault(ev, "seq", "0"), 10, 64)
		sp := TraceSpan{
			Member: evAttrDefault(ev, "member", ""),
			Op:     evAttrDefault(ev, "op", ""),
			Detail: evAttrDefault(ev, "detail", ""),
			At:     at,
			Seq:    seq,
		}
		if sp.Member == "" || sp.Op == "" {
			return nil, fmt.Errorf("wire: trace span missing member/op")
		}
		if err := s.skip(); err != nil {
			return nil, fmt.Errorf("wire: trace document: %w", err)
		}
		td.Spans = append(td.Spans, sp)
	}
	if err := s.finish(); err != nil {
		return nil, fmt.Errorf("wire: trace document: %w", err)
	}
	return td, nil
}
