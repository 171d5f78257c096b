package push

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/kxml"
)

// Storage and wire formats. Everything is XML, like the rest of the
// platform's documents:
//
//	<mb-entry device="d" seq="3" kind="result" agent="ag-1"
//	          event="result:ag-1" enq="1234">body</mb-entry>
//	<mb-meta device="d" next="7" cursor="2" evicted="1">
//	  <e seq="3">result:ag-1</e> ...
//	</mb-meta>
//	<mailbox device="d" next="5" evicted="1">
//	  <entry seq=... kind=... agent=... event=...><![CDATA[body]]></entry>
//	</mailbox>
//
// Bodies are text payloads (result documents, short notes). In the
// backing records and in a migration export they ride as escaped
// character data; in the mailbox document a device reads they ride as
// CDATA (a "]]>" inside one is split across two sections), so a result
// document's markup crosses the wireless link unescaped. The device's
// document carries no enqueue time (enq): no device reads it, and a
// wall-clock stamp would make the answer's length vary from run to run.
// A migration export keeps it, so TTLs keep counting at the new edge;
// a missing enq parses as the zero time. The device's document travels
// as one compress frame — LZSS, the codec every device already decodes
// its own records with (EncodeDelivery) — whose
// magic byte no XML document can begin with: ParseEntries reads either
// form. Timestamps are unix nanoseconds.

// encodeEntryRecord renders one entry's backing record. Like the meta
// record it sits on the enqueue path, so it is append-built.
func encodeEntryRecord(device string, e *Entry) []byte {
	b := make([]byte, 0, 128+len(e.Body))
	b = append(b, `<mb-entry device="`...)
	b = kxml.AppendEscapedAttr(b, device)
	b = append(b, `" seq="`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `" kind="`...)
	b = kxml.AppendEscapedAttr(b, e.Kind)
	b = append(b, `" agent="`...)
	b = kxml.AppendEscapedAttr(b, e.AgentID)
	b = append(b, `" event="`...)
	b = kxml.AppendEscapedAttr(b, e.EventID)
	b = append(b, `" enq="`...)
	b = strconv.AppendInt(b, e.Enqueued.UnixNano(), 10)
	b = append(b, `">`...)
	b = kxml.AppendEscapedText(b, string(e.Body))
	b = append(b, `</mb-entry>`...)
	return b
}

func entryFrom(n *kxml.Node) (*Entry, error) {
	seq, err := strconv.ParseUint(n.AttrDefault("seq", ""), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("push: entry seq: %w", err)
	}
	enq, _ := strconv.ParseInt(n.AttrDefault("enq", "0"), 10, 64)
	e := &Entry{
		Seq:     seq,
		Kind:    n.AttrDefault("kind", ""),
		AgentID: n.AttrDefault("agent", ""),
		EventID: n.AttrDefault("event", ""),
	}
	if enq != 0 {
		e.Enqueued = time.Unix(0, enq)
	}
	if txt := n.TextContent(); txt != "" {
		e.Body = []byte(txt)
	}
	return e, nil
}

// metaState is the decoded form of a device's meta record.
type metaState struct {
	next    uint64
	cursor  uint64
	evicted uint64
	token   string
	tenant  string
	dedup   []dedupEvent
}

type dedupEvent struct {
	id  string
	seq uint64
	at  int64 // unix nanoseconds; 0 in records from before aging
}

// metaDedupPersist bounds how many dedup event ids the meta record
// carries. The full in-memory window (dedupWindow) still filters
// replays while the process lives; the persisted tail only needs to
// cover replays arriving shortly after a crash (a journal-resumed
// journey re-delivering its result), so a small bound keeps the
// meta rewrite — which happens on every enqueue and ack — cheap.
const metaDedupPersist = 64

// encodeMetaRecord renders a device's watermark/cursor/dedup state
// with next as the seq watermark and, when ev has an id, ev as the
// newest dedup event — the enqueue path renders the record it is about
// to commit before it touches the mailbox. It sits on the enqueue/ack
// path, so the document is built with direct byte appends instead of a
// node tree. Caller holds mb.mu.
func encodeMetaRecord(mb *mailbox, next uint64, ev dedupEvent) []byte {
	order := mb.dedupOrder
	keep := metaDedupPersist
	if ev.id != "" {
		keep--
	}
	if len(order) > keep {
		order = order[len(order)-keep:]
	}
	// Size the buffer to this mailbox, not the worst case: the record is
	// rewritten on every enqueue and ack, and the old fixed 2.2KB
	// allocation dominated the per-delivery garbage for the common
	// near-empty window.
	size := 96 + len(mb.device) + len(mb.token) + len(mb.tenant) + len(ev.id) + 56
	for _, rec := range order {
		size += len(rec.id) + 56 // <e seq="..." at="...">id</e>
	}
	b := make([]byte, 0, size)
	b = append(b, `<mb-meta device="`...)
	b = kxml.AppendEscapedAttr(b, mb.device)
	b = append(b, `" next="`...)
	b = strconv.AppendUint(b, next, 10)
	b = append(b, `" cursor="`...)
	b = strconv.AppendUint(b, mb.cursor, 10)
	b = append(b, `" evicted="`...)
	b = strconv.AppendUint(b, mb.evicted, 10)
	b = append(b, `" token="`...)
	b = kxml.AppendEscapedAttr(b, mb.token)
	// Omitted for the default account, so single-tenant records stay
	// byte-identical to the pre-§12 format.
	if mb.tenant != "" {
		b = append(b, `" tenant="`...)
		b = kxml.AppendEscapedAttr(b, mb.tenant)
	}
	b = append(b, `">`...)
	for _, rec := range order {
		b = appendDedupEvent(b, dedupEvent{id: rec.id, seq: mb.dedup[rec.id], at: rec.at.UnixNano()})
	}
	if ev.id != "" {
		b = appendDedupEvent(b, ev)
	}
	b = append(b, `</mb-meta>`...)
	return b
}

func appendDedupEvent(b []byte, ev dedupEvent) []byte {
	b = append(b, `<e seq="`...)
	b = strconv.AppendUint(b, ev.seq, 10)
	b = append(b, `" at="`...)
	b = strconv.AppendInt(b, ev.at, 10)
	b = append(b, `">`...)
	b = kxml.AppendEscapedText(b, ev.id)
	return append(b, `</e>`...)
}

// parseRecord decodes one backing-store record into either an entry or
// a meta state (the other return is nil).
func parseRecord(data []byte) (device string, e *Entry, meta *metaState, err error) {
	root, err := kxml.ParseBytes(data)
	if err != nil {
		return "", nil, nil, err
	}
	device = root.AttrDefault("device", "")
	if device == "" {
		return "", nil, nil, fmt.Errorf("push: record missing device")
	}
	switch root.Name {
	case "mb-entry":
		e, err = entryFrom(root)
		return device, e, nil, err
	case "mb-meta":
		m := &metaState{}
		m.next, _ = strconv.ParseUint(root.AttrDefault("next", "0"), 10, 64)
		m.cursor, _ = strconv.ParseUint(root.AttrDefault("cursor", "0"), 10, 64)
		m.evicted, _ = strconv.ParseUint(root.AttrDefault("evicted", "0"), 10, 64)
		m.token = root.AttrDefault("token", "")
		m.tenant = root.AttrDefault("tenant", "")
		for _, c := range root.FindAll("e") {
			seq, _ := strconv.ParseUint(c.AttrDefault("seq", "0"), 10, 64)
			at, _ := strconv.ParseInt(c.AttrDefault("at", "0"), 10, 64)
			m.dedup = append(m.dedup, dedupEvent{id: c.TextContent(), seq: seq, at: at})
		}
		return device, nil, m, nil
	default:
		return "", nil, nil, fmt.Errorf("push: unknown record type %q", root.Name)
	}
}

// EncodeEntries renders the mailbox document a gateway serves to a
// polling device: the pending entries, the watermark the reader should
// ack once processed, and the device's lifetime eviction count. The
// device receives it framed (EncodeDelivery).
func EncodeEntries(device string, entries []*Entry, watermark, evicted uint64) []byte {
	return encodeMailboxDoc(device, entries, watermark, evicted, "", "", true)
}

// EncodeDelivery is the mailbox answer a gateway sends a device:
// EncodeEntries' document as one LZSS frame.
func EncodeDelivery(device string, entries []*Entry, watermark, evicted uint64) []byte {
	doc := EncodeEntries(device, entries, watermark, evicted)
	// Sized for the frame header and LZSS's worst case (every byte a
	// literal, a flag byte per eight), so the buffer never grows.
	out, _ := compress.AppendEncode(make([]byte, 0, len(doc)+len(doc)/8+16), compress.LZSS, doc)
	return out
}

// EncodeExport renders the migration document one gateway serves to a
// peer pulling a device's mailbox: EncodeEntries plus the device's
// access token (so the device keeps authenticating at its new edge)
// and its tenant binding (so the new edge bills the mailbox to the
// same account). Export documents travel only on the
// secret-authenticated /cluster/ channel — never to devices — raw, with
// the escaped bodies every member has always read.
func EncodeExport(device string, entries []*Entry, watermark uint64, token, tenant string) []byte {
	return encodeMailboxDoc(device, entries, watermark, 0, token, tenant, false)
}

// encodeMailboxDoc is the one mailbox-document encoder, append-built
// like the records above; forDevice selects the device's form: CDATA
// bodies and no enqueue times.
func encodeMailboxDoc(device string, entries []*Entry, watermark, evicted uint64, token, tenant string, forDevice bool) []byte {
	size := 128 + len(device) + len(token) + len(tenant)
	for _, e := range entries {
		size += 128 + len(e.Kind) + len(e.AgentID) + len(e.EventID) + len(e.Body)
	}
	b := make([]byte, 0, size)
	b = append(b, `<?xml version="1.0" encoding="UTF-8"?><mailbox device="`...)
	b = kxml.AppendEscapedAttr(b, device)
	b = append(b, `" next="`...)
	b = strconv.AppendUint(b, watermark, 10)
	b = append(b, `" evicted="`...)
	b = strconv.AppendUint(b, evicted, 10)
	if token != "" {
		b = append(b, `" token="`...)
		b = kxml.AppendEscapedAttr(b, token)
	}
	if tenant != "" {
		b = append(b, `" tenant="`...)
		b = kxml.AppendEscapedAttr(b, tenant)
	}
	if len(entries) == 0 {
		return append(b, `"/>`...)
	}
	b = append(b, `">`...)
	for _, e := range entries {
		b = append(b, `<entry seq="`...)
		b = strconv.AppendUint(b, e.Seq, 10)
		b = append(b, `" kind="`...)
		b = kxml.AppendEscapedAttr(b, e.Kind)
		b = append(b, `" agent="`...)
		b = kxml.AppendEscapedAttr(b, e.AgentID)
		b = append(b, `" event="`...)
		b = kxml.AppendEscapedAttr(b, e.EventID)
		if !forDevice {
			b = append(b, `" enq="`...)
			b = strconv.AppendInt(b, e.Enqueued.UnixNano(), 10)
		}
		if len(e.Body) == 0 {
			b = append(b, `"/>`...)
			continue
		}
		b = append(b, `">`...)
		if forDevice {
			b = appendCDATA(b, e.Body)
		} else {
			b = kxml.AppendEscapedText(b, string(e.Body))
		}
		b = append(b, `</entry>`...)
	}
	return append(b, `</mailbox>`...)
}

// appendCDATA writes text as CDATA. A "]]>" inside it would end the
// section, so it is split across two: "]]" closes one, ">" opens the next.
func appendCDATA(b, text []byte) []byte {
	b = append(b, `<![CDATA[`...)
	for {
		i := bytes.Index(text, []byte("]]>"))
		if i < 0 {
			break
		}
		b = append(b, text[:i+2]...)
		b = append(b, `]]><![CDATA[`...)
		text = text[i+2:]
	}
	b = append(b, text...)
	return append(b, `]]>`...)
}

// ParseEntries decodes a mailbox document, raw or framed
// (EncodeDelivery). token and tenant are only present on migration
// exports.
func ParseEntries(doc []byte) (device string, entries []*Entry, watermark, evicted uint64, token, tenant string, err error) {
	if compress.IsFrame(doc) {
		// Decode refuses a declared size past compress.MaxDecodedSize, or
		// past what the payload can decode to, before allocating for it.
		if doc, err = compress.Decode(doc); err != nil {
			return "", nil, 0, 0, "", "", fmt.Errorf("push: mailbox frame: %w", err)
		}
	}
	root, err := kxml.ParseBytes(doc)
	if err != nil {
		return "", nil, 0, 0, "", "", err
	}
	if root.Name != "mailbox" {
		return "", nil, 0, 0, "", "", fmt.Errorf("push: expected mailbox document, got %q", root.Name)
	}
	device = root.AttrDefault("device", "")
	watermark, _ = strconv.ParseUint(root.AttrDefault("next", "0"), 10, 64)
	evicted, _ = strconv.ParseUint(root.AttrDefault("evicted", "0"), 10, 64)
	token = root.AttrDefault("token", "")
	tenant = root.AttrDefault("tenant", "")
	for _, c := range root.FindAll("entry") {
		e, err := entryFrom(c)
		if err != nil {
			return "", nil, 0, 0, "", "", err
		}
		entries = append(entries, e)
	}
	return device, entries, watermark, evicted, token, tenant, nil
}
