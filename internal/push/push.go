// Package push is the disconnection-tolerant device-session subsystem:
// a durable, quota-bounded mailbox per device, plus the delivery
// machinery the gateway layers on top of it (DESIGN.md §7).
//
// PDAgent's premise is that wireless devices are resource-poor and
// intermittently connected — the agent roams so the device does not
// have to stay online. The mailbox closes the last synchronous gap in
// that story: result documents, status changes and management
// notifications are enqueued the moment they happen, whether or not the
// device is reachable, and survive gateway crashes when the Hub is
// backed by a persistent rms.Store (exactly like the agent journal).
//
// Delivery model:
//
//   - every entry gets a per-device, monotonically increasing sequence
//     number; the device acknowledges a watermark ("cursor") and is
//     then served only entries beyond it, so a reconnecting device
//     never sees a duplicate within one mailbox;
//   - enqueues are deduplicated by a caller-supplied event id (bounded
//     per-device window, persisted), so a crash-replayed journey or a
//     retried cluster relay cannot create a second copy of the same
//     result;
//   - connected devices get wait-free fan-out: Wait hands out one
//     shared channel per device that Enqueue closes, so a parked
//     long-poll wakes the instant mail arrives without queueing;
//   - disconnected devices accumulate store-and-forward entries,
//     bounded by a per-device quota (oldest expendable — non-result —
//     entries evicted first, then oldest overall) and an optional TTL;
//     every eviction is counted and surfaced to the device, so a lost
//     notification is visible, never silent.
//
// The Hub also supports mailbox migration between clustered gateways
// (Export / Import / Ack): the mailbox follows the device to whichever
// member it reconnects through, with on-demand pull as repair.
package push

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/rms"
	"pdagent/internal/tenant"
)

// Entry kinds.
const (
	// KindResult carries a result document; never evicted before
	// expendable kinds.
	KindResult = "result"
	// KindStatus carries an agent status change (disposed, expired...).
	KindStatus = "status"
	// KindManage carries a management notification (e.g. a clone id).
	KindManage = "manage"
)

// DefaultQuota bounds each device's pending entries when the config
// does not say otherwise.
const DefaultQuota = 256

// dedupWindow is the minimum per-device window of remembered event
// ids. The effective window is max(dedupWindow, 2×quota) — it must
// exceed the quota, or a still-pending entry could outlive its own
// dedup memory and a retried relay would enqueue a second copy.
const dedupWindow = 512

// DefaultDedupTTL is how long a delivered entry's event id stays in
// the dedup window when the config does not say otherwise. Retries
// that need dedup — a crash-replayed journey, a re-sent cluster relay,
// a re-pulled migration export — arrive within seconds to minutes of
// the original; ids older than this are dead weight, and a fleet of
// drained idle devices would otherwise retain its entire dedup
// high-water mark forever (the churn harness measured ~8.9KB per idle
// device of exactly this residue).
const DefaultDedupTTL = 15 * time.Minute

// Config configures a Hub.
type Config struct {
	// Store is the backing record store. A persistent store
	// (rms.WALStore) makes mailboxes survive gateway crashes; required.
	Store rms.Store
	// TTL expires entries that sat undelivered longer than this
	// (0 = keep until acked or evicted by quota).
	TTL time.Duration
	// DedupTTL ages event ids out of the dedup window once every entry
	// at or below their seq is acknowledged and no retry can plausibly
	// still be in flight (0 = DefaultDedupTTL, negative = keep ids for
	// the full count-bounded window forever). Ids for unacknowledged
	// entries never age out, whatever the TTL.
	DedupTTL time.Duration
	// Quota bounds each device's pending entries (default DefaultQuota).
	Quota int
	// Clock overrides the time source (tests).
	Clock func() time.Time
	// Logf, when set, receives diagnostics.
	Logf func(format string, args ...any)
}

// Entry is one mailbox item.
type Entry struct {
	// Seq is the per-device sequence number (1-based, monotonic).
	Seq uint64
	// Kind is one of KindResult, KindStatus, KindManage.
	Kind string
	// AgentID names the journey the entry is about.
	AgentID string
	// EventID identifies the underlying event for enqueue dedup
	// (e.g. "result:ag-...").
	EventID string
	// Body is the payload (a result document, a short note).
	Body []byte
	// Enqueued is when the entry was created (drives TTL).
	Enqueued time.Time

	recID int // backing record, 0 for wire-decoded entries
}

// Stats is a snapshot of hub counters.
type Stats struct {
	// Enqueued counts accepted entries (duplicates excluded).
	Enqueued uint64
	// Delivered counts entries acknowledged by devices (including
	// entries handed to a migrating peer).
	Delivered uint64
	// Duplicates counts enqueues suppressed by the event-id window.
	Duplicates uint64
	// EvictedQuota / EvictedTTL count entries dropped before delivery.
	EvictedQuota uint64
	EvictedTTL   uint64
	// Devices is the number of mailboxes; Connected the number of
	// devices with an active session (e.g. a parked long-poll).
	Devices   int
	Connected int
	// Pending is the total undelivered entries across devices.
	Pending int
	// DirtyDevices is the sweep working set: mailboxes currently
	// holding pending entries or dedup memory. Sweeps and stats walk
	// only these, so a million idle drained devices cost nothing to
	// scan.
	DirtyDevices int
	// DedupWindow is the effective per-device dedup window
	// (max(dedupWindow, 2×quota)); DedupIDs the event ids currently
	// remembered across dirty mailboxes — together they bound and
	// report the hub's dedup memory (§8's per-device budget).
	DedupWindow int
	DedupIDs    int
	// AcksFolded / AcksFlushed count acknowledgements by how their store
	// ops were committed: folded into the device's next enqueue (one
	// fsync for both), or flushed by a commit of their own — a
	// synchronous Ack or Poll, or a staged ack met by a flush point.
	// StagedAcks is how many are applied in memory and not yet committed.
	AcksFolded  uint64
	AcksFlushed uint64
	StagedAcks  int
}

// Hub manages every device mailbox over one backing store.
type Hub struct {
	cfg Config
	// dedupLimit is the effective per-device dedup window:
	// max(dedupWindow, 2×quota).
	dedupLimit int
	// dedupTTL is the resolved Config.DedupTTL (0 = never age).
	dedupTTL time.Duration

	mu     sync.Mutex
	boxes  map[string]*mailbox
	closed bool
	// dirty holds the mailboxes with pending entries or dedup memory —
	// the only ones a sweep needs to visit. Guarded by mu; membership
	// mirrors mailbox.dirty (transitions happen under mb.mu, which may
	// take mu — never the reverse).
	dirty map[string]*mailbox
	// tbytes tallies pending payload bytes per tenant label (DESIGN.md
	// §12 mailbox quotas). Guarded by mu; charged and discharged under
	// the owning mb.mu at the same points mailbox.bytes moves.
	tbytes map[string]int64

	enqueued  atomic.Uint64
	delivered atomic.Uint64
	dups      atomic.Uint64
	evQuota   atomic.Uint64
	evTTL     atomic.Uint64
	connected atomic.Int64
	// pending gauges total undelivered entries, so Stats never walks
	// the fleet.
	pending atomic.Int64
	// Acknowledgements by how they were committed, and how many wait.
	acksFolded  atomic.Uint64
	acksFlushed atomic.Uint64
	stagedAcks  atomic.Int64
}

// mailbox is one device's state. Guarded by its own mutex so traffic
// for unrelated devices never contends (the hub lock only guards the
// device map).
type mailbox struct {
	mu      sync.Mutex
	device  string
	entries []*Entry // pending, ascending seq
	nextSeq uint64   // next sequence number to assign
	cursor  uint64   // highest acknowledged seq
	evicted uint64   // entries this device lost to quota/TTL, ever
	metaRec int      // record id of the meta record (0 = not yet written)
	// token authenticates the device to the delivery endpoints. Minted
	// on the authenticated dispatch path, returned to the device in the
	// dispatch response, persisted with the meta record, and carried
	// along by mailbox migration — so only the device that proved a
	// subscription can read or acknowledge (destroy) its mail.
	token string
	// tenant is the account the mailbox bills to ("" = default). Bound
	// on the authenticated dispatch path like the token (first non-empty
	// binding wins), persisted with the meta record, carried by
	// migration exports.
	tenant string
	// bytes is the sum of pending entry payload sizes — the device's
	// contribution to its tenant's tbytes row.
	bytes int64

	// dedup maps event id -> seq; allocated on first use, released when
	// the window fully ages out (a Go map never returns bucket memory,
	// so an idle device must not keep an emptied one around).
	dedup      map[string]uint64
	dedupOrder []dedupRec // FIFO for the bounded, aging window
	dirty      bool       // tracked in Hub.dirty (entries, dedup or staged acks live)

	// stagedAcks counts acknowledgements applied in memory whose store
	// ops — the cursor write, then the deletes of the records in staged —
	// are not committed yet (PollStaged). They go at the head of this
	// mailbox's next ordered commit.
	stagedAcks int32
	staged     []int

	signal chan struct{} // shared waiter channel, lazily created
	conns  int           // active sessions (presence)
}

// dedupRec is one remembered event id with its enqueue time, so the
// window ages by DedupTTL as well as by count.
type dedupRec struct {
	id string
	at time.Time
}

// NewHub opens a hub over the store, replaying any mailboxes already in
// it (entries at or below a device's persisted cursor — a crash between
// the cursor write and the entry deletes — are completed, not
// resurrected).
func NewHub(cfg Config) (*Hub, error) {
	if cfg.Store == nil {
		return nil, errors.New("push: config missing Store")
	}
	if cfg.Quota <= 0 {
		cfg.Quota = DefaultQuota
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	h := &Hub{cfg: cfg, dedupLimit: dedupWindow, boxes: map[string]*mailbox{},
		dirty: map[string]*mailbox{}, tbytes: map[string]int64{}}
	if min := 2 * cfg.Quota; min > h.dedupLimit {
		h.dedupLimit = min
	}
	switch {
	case cfg.DedupTTL == 0:
		h.dedupTTL = DefaultDedupTTL
	case cfg.DedupTTL > 0:
		h.dedupTTL = cfg.DedupTTL
	}
	if err := h.replay(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Hub) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// replay rebuilds the in-memory mailboxes from the store.
func (h *Hub) replay() error {
	ids, err := h.cfg.Store.IDs()
	if err != nil {
		return fmt.Errorf("push: reading store: %w", err)
	}
	for _, id := range ids {
		data, err := h.cfg.Store.Get(id)
		if err != nil {
			return fmt.Errorf("push: record %d: %w", id, err)
		}
		dev, entry, meta, err := parseRecord(data)
		if err != nil {
			h.logf("push: dropping unparseable record %d: %v", id, err)
			_ = h.cfg.Store.Delete(id)
			continue
		}
		mb := h.box(dev)
		switch {
		case entry != nil:
			entry.recID = id
			mb.entries = append(mb.entries, entry)
		case meta != nil:
			// Later meta records supersede earlier ones (there should
			// be exactly one, but a crash can tear a rewrite).
			if mb.metaRec != 0 {
				_ = h.cfg.Store.Delete(mb.metaRec)
			}
			mb.metaRec = id
			mb.cursor = meta.cursor
			mb.evicted = meta.evicted
			mb.token = meta.token
			mb.tenant = meta.tenant
			if meta.next > mb.nextSeq {
				mb.nextSeq = meta.next
			}
			now := h.cfg.Clock()
			for _, ev := range meta.dedup {
				at := now
				if ev.at != 0 {
					at = time.Unix(0, ev.at)
				}
				h.rememberLocked(mb, ev.id, ev.seq, at)
			}
		}
	}
	var pending int64
	for _, mb := range h.boxes {
		sort.Slice(mb.entries, func(i, j int) bool { return mb.entries[i].Seq < mb.entries[j].Seq })
		// Drop entries already acknowledged (crash between the meta
		// write and the entry delete) and rebuild the dedup window from
		// whatever is still pending.
		kept := mb.entries[:0]
		for _, e := range mb.entries {
			if e.Seq <= mb.cursor {
				_ = h.cfg.Store.Delete(e.recID)
				continue
			}
			kept = append(kept, e)
			h.rememberLocked(mb, e.EventID, e.Seq, e.Enqueued)
			mb.bytes += int64(len(e.Body))
			if e.Seq >= mb.nextSeq {
				mb.nextSeq = e.Seq + 1
			}
		}
		mb.entries = kept
		pending += int64(len(kept))
		if mb.bytes > 0 {
			h.tbytes[tenant.Label(mb.tenant)] += mb.bytes
		}
		if mb.nextSeq == 0 {
			mb.nextSeq = mb.cursor + 1
		}
		if len(mb.entries) > 0 || len(mb.dedupOrder) > 0 {
			mb.dirty = true
			h.dirty[mb.device] = mb
		}
	}
	h.pending.Store(pending)
	return nil
}

// box returns (or creates) the mailbox for a device. Caller must hold
// no mailbox lock.
func (h *Hub) box(device string) *mailbox {
	h.mu.Lock()
	defer h.mu.Unlock()
	mb, ok := h.boxes[device]
	if !ok {
		// No dedup map yet: an idle device that never receives mail must
		// cost a bare struct, not map buckets (fleets are mostly idle).
		mb = &mailbox{device: device, nextSeq: 1}
		h.boxes[device] = mb
	}
	return mb
}

// lookup returns the mailbox without creating one.
func (h *Hub) lookup(device string) (*mailbox, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	mb, ok := h.boxes[device]
	return mb, ok
}

// rememberLocked records an event id in the bounded dedup window.
// Caller holds mb.mu (or has exclusive access during replay).
func (h *Hub) rememberLocked(mb *mailbox, eventID string, seq uint64, at time.Time) {
	if eventID == "" {
		return
	}
	if _, ok := mb.dedup[eventID]; ok {
		return
	}
	if mb.dedup == nil {
		mb.dedup = map[string]uint64{}
	}
	mb.dedup[eventID] = seq
	mb.dedupOrder = append(mb.dedupOrder, dedupRec{id: eventID, at: at})
	for len(mb.dedupOrder) > h.dedupLimit {
		delete(mb.dedup, mb.dedupOrder[0].id)
		mb.dedupOrder = mb.dedupOrder[1:]
	}
}

// pruneDedupLocked ages event ids past DedupTTL out of the window and
// reports whether anything changed. Ids whose entry is not yet
// acknowledged never age: a relay retry for them must still hit dedup,
// however late it arrives. Caller holds mb.mu.
func (h *Hub) pruneDedupLocked(mb *mailbox, now time.Time) bool {
	if h.dedupTTL <= 0 || len(mb.dedupOrder) == 0 {
		return false
	}
	i := 0
	for ; i < len(mb.dedupOrder); i++ {
		rec := mb.dedupOrder[i]
		if now.Sub(rec.at) <= h.dedupTTL {
			break
		}
		if mb.dedup[rec.id] > mb.cursor {
			break
		}
	}
	if i == 0 {
		return false
	}
	for _, rec := range mb.dedupOrder[:i] {
		delete(mb.dedup, rec.id)
	}
	if len(mb.dedup) == 0 {
		// Fully aged out: drop the map and slice wholesale. delete()
		// alone keeps a Go map's bucket array at its high-water size, so
		// an idle drained fleet would retain every byte of its busiest
		// hour — the single largest per-device cost the churn harness
		// found.
		mb.dedup = nil
		mb.dedupOrder = nil
		return true
	}
	// Copy the survivors to an exact-size slice: re-slicing forward
	// would keep the pruned ids' strings reachable via the shared
	// backing array. Prunes fire once per TTL window, so this copy is
	// not a hot path.
	rest := make([]dedupRec, len(mb.dedupOrder)-i)
	copy(rest, mb.dedupOrder[i:])
	mb.dedupOrder = rest
	return true
}

// chargeTenant moves a mailbox's pending-byte delta onto its tenant's
// tally. Caller holds mb.mu; takes h.mu briefly (that order is safe —
// same as updateDirtyLocked). Rows at zero are deleted so the tally
// map stays O(active tenants), not O(tenants ever seen).
func (h *Hub) chargeTenant(tenantID string, delta int64) {
	if delta == 0 {
		return
	}
	label := tenant.Label(tenantID)
	h.mu.Lock()
	if n := h.tbytes[label] + delta; n <= 0 {
		delete(h.tbytes, label)
	} else {
		h.tbytes[label] = n
	}
	h.mu.Unlock()
}

// BytesByTenant snapshots pending mailbox payload bytes per tenant
// label — the hub's contribution to §12 quota checks and usage gossip.
func (h *Hub) BytesByTenant() map[string]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int64, len(h.tbytes))
	for k, v := range h.tbytes {
		out[k] = v
	}
	return out
}

// updateDirtyLocked moves the mailbox in or out of the hub's sweep
// working set when its state transitions. Caller holds mb.mu; takes
// h.mu (that order is safe — nothing takes mb.mu under h.mu).
func (h *Hub) updateDirtyLocked(mb *mailbox) {
	want := len(mb.entries) > 0 || len(mb.dedupOrder) > 0 || mb.stagedAcks > 0
	if want == mb.dirty {
		return
	}
	mb.dirty = want
	h.mu.Lock()
	if want {
		h.dirty[mb.device] = mb
	} else {
		delete(h.dirty, mb.device)
	}
	h.mu.Unlock()
}

// Enqueue appends an entry to a device's mailbox and wakes any parked
// waiters. A non-empty eventID dedups: if the same event was already
// enqueued (pending or within the remembered window), the original seq
// is returned with dup=true and nothing is written. The entry record and
// the meta record go to the store as one ordered commit, entry first —
// a crash that keeps the entry but not the meta is repaired at replay
// (the pending entry re-seeds the dedup window and the seq watermark).
// Acks staged on the mailbox (PollStaged) ride at the head of the same
// commit: the old ack and the new entry share one fsync.
func (h *Hub) Enqueue(device, kind, agentID, eventID string, body []byte) (seq uint64, dup bool, err error) {
	return h.enqueueAt(device, kind, agentID, eventID, body, h.cfg.Clock())
}

// enqueueAt is Enqueue with an explicit enqueue time (Import preserves
// the source gateway's timestamps so TTL counts from the real event).
func (h *Hub) enqueueAt(device, kind, agentID, eventID string, body []byte, at time.Time) (seq uint64, dup bool, err error) {
	mb := h.box(device)
	mb.mu.Lock()
	defer mb.mu.Unlock()

	if eventID != "" {
		if prev, ok := mb.dedup[eventID]; ok {
			h.dups.Add(1)
			return prev, true, nil
		}
	}

	now := h.cfg.Clock()
	h.expireLocked(mb, now)
	h.pruneDedupLocked(mb, now)
	for len(mb.entries) >= h.cfg.Quota {
		h.evictOneLocked(mb)
	}

	e := &Entry{
		Seq:      mb.nextSeq,
		Kind:     kind,
		AgentID:  agentID,
		EventID:  eventID,
		Body:     body,
		Enqueued: at,
	}
	bp := opsPool.Get().(*[]rms.Op)
	*bp = appendStagedOps(*bp, mb)
	k := len(*bp)
	*bp = append(*bp, rms.Op{Op: rms.OpAdd, Data: encodeEntryRecord(device, e)},
		metaOp(mb, e.Seq+1, dedupEvent{id: eventID, seq: e.Seq, at: now.UnixNano()}))
	ids, err := h.apply(bp)
	if err != nil {
		// Nothing in memory has moved yet, so a retry of the same event
		// is judged afresh, not refused as a duplicate; staged acks stay
		// staged for the next commit.
		return 0, false, fmt.Errorf("push: storing entry for %s: %w", device, err)
	}
	e.recID, mb.metaRec = ids[k], ids[k+1]
	mb.nextSeq++
	mb.entries = append(mb.entries, e)
	mb.bytes += int64(len(e.Body))
	h.chargeTenant(mb.tenant, int64(len(e.Body)))
	h.rememberLocked(mb, eventID, e.Seq, now)
	h.enqueued.Add(1)
	h.pending.Add(1)
	h.settleAcksLocked(mb, &h.acksFolded)
	h.updateDirtyLocked(mb)

	// Wait-free fan-out: closing the shared signal channel wakes every
	// parked long-poll for this device at once.
	if mb.signal != nil {
		close(mb.signal)
		mb.signal = nil
	}
	return e.Seq, false, nil
}

// evictOneLocked drops one pending entry to make room: the oldest
// expendable (non-result) entry if any, else the oldest overall. The
// loss is counted and surfaced through the device's evicted counter.
func (h *Hub) evictOneLocked(mb *mailbox) {
	if len(mb.entries) == 0 {
		return
	}
	victim := 0
	for i, e := range mb.entries {
		if e.Kind != KindResult {
			victim = i
			break
		}
	}
	e := mb.entries[victim]
	_ = h.cfg.Store.Delete(e.recID)
	mb.entries = append(mb.entries[:victim], mb.entries[victim+1:]...)
	mb.bytes -= int64(len(e.Body))
	h.chargeTenant(mb.tenant, -int64(len(e.Body)))
	mb.evicted++
	h.evQuota.Add(1)
	h.pending.Add(-1)
	h.logf("push: mailbox %s over quota, evicted seq %d (%s %s)", mb.device, e.Seq, e.Kind, e.AgentID)
}

// expireLocked lazily drops entries past the TTL.
func (h *Hub) expireLocked(mb *mailbox, now time.Time) {
	if h.cfg.TTL <= 0 {
		return
	}
	kept := mb.entries[:0]
	for _, e := range mb.entries {
		if now.Sub(e.Enqueued) > h.cfg.TTL {
			_ = h.cfg.Store.Delete(e.recID)
			mb.bytes -= int64(len(e.Body))
			h.chargeTenant(mb.tenant, -int64(len(e.Body)))
			mb.evicted++
			h.evTTL.Add(1)
			h.pending.Add(-1)
			continue
		}
		kept = append(kept, e)
	}
	if len(kept) != len(mb.entries) {
		mb.entries = kept
		h.writeMetaLocked(mb)
		h.updateDirtyLocked(mb)
	}
}

// opsPool recycles the op slices handed to Store.Apply: an argument of
// an interface call escapes, and enqueue and ack are the hot path.
var opsPool = sync.Pool{New: func() any { return new([]rms.Op) }}

// apply commits a pooled batch and returns the slice to the pool,
// dropping its payload references first.
func (h *Hub) apply(bp *[]rms.Op) ([]int, error) {
	ids, err := h.cfg.Store.Apply(*bp)
	clear(*bp)
	*bp = (*bp)[:0]
	opsPool.Put(bp)
	return ids, err
}

// metaOp is the store op that persists the device's meta record as it
// will stand once next and ev (see encodeMetaRecord) are in effect: a
// Set of the existing record, or the first Add. Caller holds mb.mu.
func metaOp(mb *mailbox, next uint64, ev dedupEvent) rms.Op {
	doc := encodeMetaRecord(mb, next, ev)
	if mb.metaRec != 0 {
		return rms.Op{Op: rms.OpSet, ID: mb.metaRec, Data: doc}
	}
	return rms.Op{Op: rms.OpAdd, Data: doc}
}

// writeMetaLocked persists the device's watermark/cursor/dedup state.
// Best-effort beyond the entry records themselves: a torn meta is
// rebuilt from the pending entries at replay.
func (h *Hub) writeMetaLocked(mb *mailbox) {
	doc := encodeMetaRecord(mb, mb.nextSeq, dedupEvent{})
	if mb.metaRec != 0 {
		if err := h.cfg.Store.Set(mb.metaRec, doc); err == nil {
			return
		}
		// Fall through: the record may be gone (store swapped in tests).
	}
	id, err := h.cfg.Store.Add(doc)
	if err != nil {
		h.logf("push: writing meta for %s: %v", mb.device, err)
		return
	}
	mb.metaRec = id
}

// Ack acknowledges every entry with seq <= upTo: the cursor advances
// (persisted first) and the entries are deleted, together with any ack
// staged earlier, before Ack returns. Returns how many entries were
// retired. Acking an unknown device or an old watermark retires nothing.
func (h *Hub) Ack(device string, upTo uint64) (int, error) {
	mb, ok := h.lookup(device)
	if !ok {
		return 0, nil
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := h.retireLocked(mb, upTo)
	h.commitAcksLocked(mb)
	return n, nil
}

// retireLocked is the in-memory half of an ack: the cursor, the pending
// entries, the byte ledgers and the gauges move at once, and the store
// ops that make it durable are staged on the mailbox. The caller
// commits them (commitAcksLocked) or leaves them for the mailbox's next
// commit. Caller holds mb.mu.
func (h *Hub) retireLocked(mb *mailbox, upTo uint64) int {
	if upTo <= mb.cursor {
		return 0
	}
	if upTo >= mb.nextSeq {
		// No entry with this seq was ever assigned here: the watermark
		// belongs to another mailbox generation (e.g. the gateway lost
		// a volatile store and restarted its seq space while the device
		// kept its durable cursor). Ignore it — clamping would advance
		// the cursor past, and delete, mail the device never saw.
		return 0
	}
	mb.cursor = upTo
	n := 0
	kept := mb.entries[:0]
	for _, e := range mb.entries {
		if e.Seq <= upTo {
			mb.staged = append(mb.staged, e.recID)
			mb.bytes -= int64(len(e.Body))
			h.chargeTenant(mb.tenant, -int64(len(e.Body)))
			n++
			continue
		}
		kept = append(kept, e)
	}
	mb.entries = kept
	mb.stagedAcks++
	h.stagedAcks.Add(1)
	h.delivered.Add(uint64(n))
	h.pending.Add(int64(-n))
	h.updateDirtyLocked(mb)
	return n
}

// appendStagedOps appends the store half of the mailbox's staged acks.
// One ordered run, cursor first, deletes second: if a crash keeps only a
// prefix, replay drops the already-acked entries instead of
// resurrecting them. Caller holds mb.mu.
func appendStagedOps(ops []rms.Op, mb *mailbox) []rms.Op {
	if mb.stagedAcks == 0 {
		return ops
	}
	ops = append(ops, metaOp(mb, mb.nextSeq, dedupEvent{}))
	for _, id := range mb.staged {
		ops = append(ops, rms.Op{Op: rms.OpDelete, ID: id})
	}
	return ops
}

// commitAcksLocked commits the mailbox's staged acks on their own.
// The device has its mail whatever the store says, so the acks stand in
// memory even if persisting them fails; after a crash the device's next
// poll acks the re-offered entries again. Caller holds mb.mu.
func (h *Hub) commitAcksLocked(mb *mailbox) {
	if mb.stagedAcks == 0 {
		return
	}
	bp := opsPool.Get().(*[]rms.Op)
	*bp = appendStagedOps(*bp, mb)
	if ids, err := h.apply(bp); err != nil {
		h.logf("push: persisting ack for %s: %v", mb.device, err)
	} else {
		mb.metaRec = ids[0]
	}
	h.settleAcksLocked(mb, &h.acksFlushed)
}

// settleAcksLocked books the mailbox's staged acks under how they were
// committed and clears them. Caller holds mb.mu.
func (h *Hub) settleAcksLocked(mb *mailbox, how *atomic.Uint64) {
	if mb.stagedAcks == 0 {
		return
	}
	how.Add(uint64(mb.stagedAcks))
	h.stagedAcks.Add(-int64(mb.stagedAcks))
	mb.stagedAcks, mb.staged = 0, nil
	h.updateDirtyLocked(mb)
}

// Poll acknowledges `after` as the device's new cursor, then returns up
// to max pending entries beyond it (copies — callers own them), the
// watermark the device should persist once it processed them, and the
// device's lifetime eviction count (so lost entries are visible, never
// silent). max <= 0 means no bound. The ack is committed before Poll
// returns.
func (h *Hub) Poll(device string, after uint64, max int) (entries []*Entry, watermark, evicted uint64, err error) {
	return h.poll(device, after, max, false)
}

// PollStaged is Poll without the wait for the ack's commit — for the
// gateway's mailbox reads and for an upload that carries an ack, where a
// device would otherwise spend a round trip on an fsync it gains nothing
// from. The ack takes effect in memory at
// once; its store ops are staged and ride the mailbox's next commit —
// the next Enqueue folds them into its own — or are committed by the
// next Poll, Ack or Export, by SweepExpired and by Close. A staged ack
// lost in a crash costs a re-offer: replay brings the entries back and
// the device's next ack retires them, its cursor having filtered them
// from the application. On a closed hub the ack commits at once.
func (h *Hub) PollStaged(device string, after uint64, max int) (entries []*Entry, watermark, evicted uint64, err error) {
	return h.poll(device, after, max, true)
}

func (h *Hub) poll(device string, after uint64, max int, stage bool) (entries []*Entry, watermark, evicted uint64, err error) {
	mb := h.box(device)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	h.retireLocked(mb, after)
	if !stage || (mb.stagedAcks > 0 && h.closedNow()) {
		h.commitAcksLocked(mb)
	}
	h.expireLocked(mb, h.cfg.Clock())
	watermark = mb.cursor
	for _, e := range mb.entries {
		if e.Seq <= mb.cursor {
			continue
		}
		if max > 0 && len(entries) >= max {
			break
		}
		cp := *e
		cp.recID = 0
		entries = append(entries, &cp)
		watermark = e.Seq
	}
	return entries, watermark, mb.evicted, nil
}

// Wait returns a channel that is closed when the device's mailbox has
// (or receives) pending mail beyond the cursor. If mail is already
// pending the channel comes back closed, so the arm-then-poll race of a
// long-poll loop cannot miss a wakeup.
func (h *Hub) Wait(device string) <-chan struct{} {
	mb := h.box(device)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if h.closedNow() || pendingLocked(mb) > 0 {
		return closedChan
	}
	if mb.signal == nil {
		mb.signal = make(chan struct{})
	}
	return mb.signal
}

func (h *Hub) closedNow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

func pendingLocked(mb *mailbox) int {
	n := 0
	for _, e := range mb.entries {
		if e.Seq > mb.cursor {
			n++
		}
	}
	return n
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Connect marks a device session open (presence) and returns the
// matching disconnect. Long-polls hold it while parked.
func (h *Hub) Connect(device string) (disconnect func()) {
	mb := h.box(device)
	mb.mu.Lock()
	mb.conns++
	mb.mu.Unlock()
	h.connected.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mb.mu.Lock()
			mb.conns--
			mb.mu.Unlock()
			h.connected.Add(-1)
		})
	}
}

// Connected reports whether the device has at least one open session.
func (h *Hub) Connected(device string) bool {
	mb, ok := h.lookup(device)
	if !ok {
		return false
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.conns > 0
}

// Known reports whether the device has a mailbox. The gateway's
// unauthenticated delivery endpoints check it so a scanner looping
// over made-up device names cannot grow the hub.
func (h *Hub) Known(device string) bool {
	_, ok := h.lookup(device)
	return ok
}

// Touch creates the device's (empty) mailbox if it does not exist and
// returns its access token, minting one on first use. The gateway
// calls it from the authenticated dispatch path, so a device becomes
// Known — and its long-polls park properly, even before its first
// notification — exactly when it proves a subscription, and receives
// the token the delivery endpoints demand.
func (h *Hub) Touch(device string) string {
	mb := h.box(device)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.token == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			h.logf("push: minting token for %s: %v", device, err)
			return ""
		}
		mb.token = hex.EncodeToString(b[:])
		h.writeMetaLocked(mb)
	}
	return mb.token
}

// CheckToken reports whether tok is the device's mailbox token
// (constant-time). Unknown devices and empty tokens never match.
func (h *Hub) CheckToken(device, tok string) bool {
	mb, ok := h.lookup(device)
	if !ok || tok == "" {
		return false
	}
	mb.mu.Lock()
	want := mb.token
	mb.mu.Unlock()
	return want != "" && subtle.ConstantTimeCompare([]byte(want), []byte(tok)) == 1
}

// AdoptToken installs a token migrated from another gateway, if the
// local mailbox has none — the device keeps authenticating with the
// token its original edge minted.
func (h *Hub) AdoptToken(device, tok string) {
	if tok == "" {
		return
	}
	mb := h.box(device)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.token == "" {
		mb.token = tok
		h.writeMetaLocked(mb)
	}
}

// TokenOf returns the device's current token ("" if none) — for the
// migration export.
func (h *Hub) TokenOf(device string) string {
	mb, ok := h.lookup(device)
	if !ok {
		return ""
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.token
}

// SetTenant binds a device's mailbox to a tenant account. Like the
// token, the binding comes from the authenticated dispatch path (the
// tenant was resolved from the subscription table, never from the
// device) or from a migration adopt; the first non-empty binding wins
// and is persisted with the meta record, so the account survives
// restarts and follows the mailbox across members. Bytes already
// pending under the default account move to the bound one.
func (h *Hub) SetTenant(device, tenantID string) {
	if tenantID == "" {
		return
	}
	mb := h.box(device)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.tenant != "" {
		return
	}
	h.chargeTenant(mb.tenant, -mb.bytes)
	mb.tenant = tenantID
	h.chargeTenant(mb.tenant, mb.bytes)
	h.writeMetaLocked(mb)
}

// TenantOf returns the device's bound tenant account ("" = default) —
// for the migration export.
func (h *Hub) TenantOf(device string) string {
	mb, ok := h.lookup(device)
	if !ok {
		return ""
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.tenant
}

// Pending returns the device's undelivered entry count.
func (h *Hub) Pending(device string) int {
	mb, ok := h.lookup(device)
	if !ok {
		return 0
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return pendingLocked(mb)
}

// SweepExpired drops every entry past the TTL and every dedup id past
// DedupTTL, and commits every staged ack, visiting only mailboxes that
// hold memory (the dirty set — O(active), not O(devices)). Returns how
// many entries were dropped.
func (h *Hub) SweepExpired() int {
	if h.cfg.TTL <= 0 && h.dedupTTL <= 0 && h.stagedAcks.Load() == 0 {
		return 0
	}
	before := h.evTTL.Load()
	now := h.cfg.Clock()
	for _, mb := range h.dirtySnapshot() {
		mb.mu.Lock()
		h.commitAcksLocked(mb)
		h.expireLocked(mb, now)
		if h.pruneDedupLocked(mb, now) {
			// Shrink the persisted meta too: the stored record otherwise
			// keeps the full dedup tail alive in the backing store.
			h.writeMetaLocked(mb)
			h.updateDirtyLocked(mb)
		}
		mb.mu.Unlock()
	}
	return int(h.evTTL.Load() - before)
}

func (h *Hub) dirtySnapshot() []*mailbox {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*mailbox, 0, len(h.dirty))
	for _, mb := range h.dirty {
		out = append(out, mb)
	}
	return out
}

// Stats returns a counter snapshot. O(1) — a million-device hub is
// polled for metrics without walking the fleet.
func (h *Hub) Stats() Stats {
	s := Stats{
		Enqueued:     h.enqueued.Load(),
		Delivered:    h.delivered.Load(),
		Duplicates:   h.dups.Load(),
		EvictedQuota: h.evQuota.Load(),
		EvictedTTL:   h.evTTL.Load(),
		Connected:    int(h.connected.Load()),
		Pending:      int(h.pending.Load()),
		AcksFolded:   h.acksFolded.Load(),
		AcksFlushed:  h.acksFlushed.Load(),
		StagedAcks:   int(h.stagedAcks.Load()),
	}
	s.DedupWindow = h.dedupLimit
	h.mu.Lock()
	s.Devices = len(h.boxes)
	s.DirtyDevices = len(h.dirty)
	dirty := make([]*mailbox, 0, len(h.dirty))
	for _, mb := range h.dirty {
		dirty = append(dirty, mb)
	}
	h.mu.Unlock()
	// Dedup memory lives only on dirty mailboxes; count it outside the
	// hub lock (per-box locks order under hub like everywhere else).
	for _, mb := range dirty {
		mb.mu.Lock()
		s.DedupIDs += len(mb.dedupOrder)
		mb.mu.Unlock()
	}
	return s
}

// Close wakes every parked waiter (their channels close) so long-polls
// racing a shutdown return instead of hanging, and commits every staged
// ack; acks arriving later commit before their poll returns. The store
// is left to its owner, who closes it after the hub.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	boxes := make([]*mailbox, 0, len(h.boxes))
	for _, mb := range h.boxes {
		boxes = append(boxes, mb)
	}
	h.mu.Unlock()
	for _, mb := range boxes {
		mb.mu.Lock()
		if mb.signal != nil {
			close(mb.signal)
			mb.signal = nil
		}
		h.commitAcksLocked(mb)
		mb.mu.Unlock()
	}
}

// --- migration (the mailbox follows the device) -------------------------

// Export returns copies of the device's pending entries, for a peer
// gateway pulling the mailbox to wherever the device reconnected. The
// entries stay here until the peer acknowledges the transfer (AckExport
// / Ack), so a lost response cannot lose mail.
func (h *Hub) Export(device string) []*Entry {
	entries, _, _, _ := h.Poll(device, 0, 0)
	return entries
}

// Import adopts entries exported by another gateway into the device's
// local mailbox. Entries are re-sequenced onto the local seq space (the
// device's cursor is per-gateway, so source seqs mean nothing here) and
// deduplicated by event id, making a re-pulled export idempotent. The
// original enqueue times are kept so TTL keeps counting from the real
// event. Returns how many entries were adopted.
func (h *Hub) Import(device string, entries []*Entry) (int, error) {
	n := 0
	for _, e := range entries {
		at := e.Enqueued
		if at.IsZero() {
			at = h.cfg.Clock()
		}
		_, dup, err := h.enqueueAt(device, e.Kind, e.AgentID, e.EventID, e.Body, at)
		if err != nil {
			return n, err
		}
		if !dup {
			n++
		}
	}
	return n, nil
}

// Devices lists every device with a mailbox, sorted.
func (h *Hub) Devices() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.boxes))
	for d := range h.boxes {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
