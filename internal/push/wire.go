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
//	<mb-meta device="d" next="7" cursor="2" evicted="1" token="t">
//	  <e seq="5" at="1234">result:ag-5</e> ...
//	</mb-meta>
//	<mb-seen device="d">
//	  <e seq="1" at="1234">result:ag-1</e> ... (8 of them)
//	</mb-seen>
//	<mailbox device="d" next="5" evicted="1">
//	  <entry seq=... kind=... agent=... event=...><![CDATA[body]]></entry>
//	</mailbox>
//
// A device's dedup memory is persisted in two parts. The meta record,
// rewritten by every commit, carries the live tail: the event ids
// remembered since the last seal, fewer than chunkSize. The enqueue
// that would make the tail chunkSize ids writes it, with its own id,
// as one mb-seen record instead, which is never rewritten; a device
// keeps its newest sealedChunks of them. A meta written before mb-seen
// records existed carries up to metaDedupPersist ids inline; replay
// seals them into one chunk.
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
// as one compress frame (EncodeDelivery) whose magic byte no XML
// document can begin with: DEFLATE primed with the platform's markup
// (compress.FlateDict) for a device that says it reads it, DEFLATE at
// BestSpeed, a codec every device has always decoded, for any other;
// gateways before those sent LZSS. ParseEntries reads either form, and
// every codec. Timestamps are unix nanoseconds.

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

// metaDedupPersist is how many of a device's newest remembered event
// ids every commit prefix keeps on disk. The full in-memory window
// (dedupWindow) still filters replays while the process lives; the
// persisted ids only need to cover replays arriving shortly after a
// crash (a journal-resumed journey re-delivering its result). The meta
// record used to carry all of them, rewritten by every enqueue and ack,
// and that was not cheap: 64 devices × 75 journeys with 600 B bodies
// handed the store 6140 B of record data per journey, and under
// echo_plain encodeMetaRecord alone was 5.3 % of gateway CPU (2-CPU
// Linux host). Sealed in sealedChunks mb-seen records of chunkSize ids,
// each written once, the same run writes 1530 B per journey and
// encodeMetaRecord is 1.2 %.
const metaDedupPersist = 64

// chunkSize is how many event ids one mb-seen record seals;
// sealedChunks how many of those a device keeps.
const (
	chunkSize    = 8
	sealedChunks = metaDedupPersist / chunkSize
)

// encodeMetaRecord renders a device's watermark/cursor state and its
// live dedup tail, with next as the seq watermark and, when ev has an
// id, ev appended to tail as the newest dedup event — the enqueue path
// renders the record it is about to commit before it touches the
// mailbox. It sits on the enqueue/ack path, so the document is built
// with direct byte appends instead of a node tree. Caller holds mb.mu.
func encodeMetaRecord(mb *mailbox, next uint64, tail []dedupRec, ev dedupEvent) []byte {
	// Size the buffer to this mailbox, not the worst case: the record is
	// rewritten on every enqueue and ack.
	b := make([]byte, 0, 96+len(mb.device)+len(mb.token)+len(mb.tenant)+dedupEventsSize(tail, ev))
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
	b = appendDedupEvents(b, mb, tail, ev)
	return append(b, `</mb-meta>`...)
}

// encodeSeenRecord renders the mb-seen record that seals tail and, when
// it has an id, ev. Caller holds mb.mu.
func encodeSeenRecord(mb *mailbox, tail []dedupRec, ev dedupEvent) []byte {
	b := make([]byte, 0, 48+len(mb.device)+dedupEventsSize(tail, ev))
	b = append(b, `<mb-seen device="`...)
	b = kxml.AppendEscapedAttr(b, mb.device)
	b = append(b, `">`...)
	b = appendDedupEvents(b, mb, tail, ev)
	return append(b, `</mb-seen>`...)
}

// dedupEventsSize bounds what appendDedupEvents writes, escapes aside.
func dedupEventsSize(tail []dedupRec, ev dedupEvent) int {
	n := len(ev.id) + 56 // <e seq="..." at="...">id</e>
	for _, rec := range tail {
		n += len(rec.id) + 56
	}
	return n
}

// appendDedupEvents appends tail's ids, then ev when it has one.
func appendDedupEvents(b []byte, mb *mailbox, tail []dedupRec, ev dedupEvent) []byte {
	for _, rec := range tail {
		b = appendDedupEvent(b, dedupEvent{id: rec.id, seq: mb.dedup[rec.id], at: rec.at.UnixNano()})
	}
	if ev.id != "" {
		b = appendDedupEvent(b, ev)
	}
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

// storedRecord is one decoded backing-store record: an mb-entry
// (entry set), an mb-meta (meta set) or, neither set, an mb-seen chunk
// whose ids are in seen.
type storedRecord struct {
	device string
	entry  *Entry
	meta   *metaState
	seen   []dedupEvent
}

// parseRecord decodes one backing-store record.
func parseRecord(data []byte) (rec storedRecord, err error) {
	root, err := kxml.ParseBytes(data)
	if err != nil {
		return rec, err
	}
	rec.device = root.AttrDefault("device", "")
	if rec.device == "" {
		return storedRecord{}, fmt.Errorf("push: record missing device")
	}
	switch root.Name {
	case "mb-entry":
		rec.entry, err = entryFrom(root)
	case "mb-meta":
		m := &metaState{dedup: dedupEventsFrom(root)}
		m.next, _ = strconv.ParseUint(root.AttrDefault("next", "0"), 10, 64)
		m.cursor, _ = strconv.ParseUint(root.AttrDefault("cursor", "0"), 10, 64)
		m.evicted, _ = strconv.ParseUint(root.AttrDefault("evicted", "0"), 10, 64)
		m.token = root.AttrDefault("token", "")
		m.tenant = root.AttrDefault("tenant", "")
		rec.meta = m
	case "mb-seen":
		rec.seen = dedupEventsFrom(root)
	default:
		err = fmt.Errorf("push: unknown record type %q", root.Name)
	}
	if err != nil {
		return storedRecord{}, err
	}
	return rec, nil
}

// dedupEventsFrom reads the <e> children of a meta or mb-seen record.
func dedupEventsFrom(n *kxml.Node) []dedupEvent {
	var evs []dedupEvent
	for _, c := range n.FindAll("e") {
		seq, _ := strconv.ParseUint(c.AttrDefault("seq", "0"), 10, 64)
		at, _ := strconv.ParseInt(c.AttrDefault("at", "0"), 10, 64)
		evs = append(evs, dedupEvent{id: c.TextContent(), seq: seq, at: at})
	}
	return evs
}

// EncodeEntries renders the mailbox document a gateway serves to a
// polling device: the pending entries, the watermark the reader should
// ack once processed, and the device's lifetime eviction count. The
// device receives it framed (EncodeDelivery).
func EncodeEntries(device string, entries []*Entry, watermark, evicted uint64) []byte {
	return encodeMailboxDoc(device, entries, watermark, evicted, "", "", true)
}

// EncodeDelivery is the mailbox answer a gateway sends a device:
// EncodeEntries' document as one frame of codec, compress.Flate or
// compress.FlateDict.
func EncodeDelivery(codec compress.Codec, device string, entries []*Entry, watermark, evicted uint64) []byte {
	doc := EncodeEntries(device, entries, watermark, evicted)
	// Sized for the frame header and DEFLATE's worst case (stored
	// blocks: 5 bytes per 64 KiB, and the final empty block), so the
	// buffer never grows.
	out, _ := compress.AppendEncode(make([]byte, 0, len(doc)+len(doc)/4096+32), codec, doc)
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
