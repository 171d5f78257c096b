package mas

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"pdagent/internal/atp"
	"pdagent/internal/rms"
)

// The agent journal is the MAS's write-ahead log: every resident agent
// image is journaled at its first suspension point after it entered the
// server (Server.enter — never before it has run) and again whenever it
// suspends for a transfer the entry does not already name, so a Server
// that dies mid-itinerary can be replaced by a fresh Server over the
// same rms.Store and Resume the journeys.
//
// Entry encoding (one rms record per agent):
//
//	magic     "MASJ2"
//	watermark uint32  (accepted-hop dedup watermark + 1; 0 = none)
//	fields    11 × (uint32 length + bytes):
//	          id, home, code-id, owner, state, target, kind, last-err,
//	          tenant, program, vm-state
//
// id, home, code-id, owner, program and vm-state are the entry's
// atp.Image: in a live entry naming a target, the image sent there.
//
// The previous magic "MASJ1" (the same layout minus the tenant field)
// is still accepted on read: a journal written before the multi-tenant
// control plane re-hydrates with every agent in the default account.
//
// target/kind are non-empty only while a transfer is pending (the
// agent suspended at migrate, or parked after a failed transfer); they
// tell Resume where the retry must go — except in the tombstone of an
// agent departed from its home, where target is where it went (the
// forwarding pointer Resume restores). The watermark persists the
// receiver-side dedup key (agent id + hop counter) across restarts, so
// a sender retrying a transfer the dead server had already accepted
// gets an idempotent commit-ack instead of landing a second copy.
//
// Once an agent leaves a server (departed onward, delivered home,
// disposed), its entry is replaced by a slim *tombstone* — the same
// encoding with empty snapshots — because the watermark must outlive
// the resident copy: a sender that never saw our ack may retry after
// we have already forwarded the agent, and a crash must not erase the
// evidence that the hop was accepted. How long a tombstone stays is the
// server's retirement rule, not the journal's: the server forgets the
// oldest retired agent's record, watermark and tombstone together
// (Server.forget), so the journal holds no policy of its own.
//
// The writes that retire an agent that is no longer here — the tombstone
// replace, a drop — are trailing appends (rms.Store.ApplyTrailing): in
// log order, durable with the store's next commit, waited for by nobody.
// A crash that loses one leaves the entry it would have removed: a
// tombstone, which Resume retires again, or a live entry — the state
// "crashed between the receiver's OK and the tombstone write": Resume
// re-ships to the journaled target and the receiver's watermark, or the
// home side's idempotent result intake, answers the duplicate. Every
// write that is at that moment the only durable copy of an agent keeps
// its wait.

// journalMagic versions the journal entry encoding; journalMagicV1 is
// the pre-tenant layout, read-compatible but never written anew.
var (
	journalMagic   = []byte("MASJ2")
	journalMagicV1 = []byte("MASJ1")
)

// journalEntry is one agent's durable snapshot; a tombstone's Image
// has no Program or State.
type journalEntry struct {
	Image   atp.Image
	State   AgentState
	Target  string // pending transfer destination ("" = none)
	Kind    string // pending transfer kind ("" = none)
	LastErr string
	// Tenant is the account the agent is billed to ("" = default).
	Tenant string
	// Watermark is the highest sent-hop counter accepted over
	// /atp/transfer for this agent (-1 when it was admitted locally).
	Watermark int
}

// encode writes the entry in one allocation, sized up front.
func (e *journalEntry) encode() []byte { return e.appendTo(nil) }

// appendTo appends the entry's encoding to dst, growing it at most once.
func (e *journalEntry) appendTo(dst []byte) []byte {
	im := &e.Image
	strs := [...]string{im.AgentID, im.Home, im.CodeID, im.Owner, string(e.State), e.Target, e.Kind, e.LastErr, e.Tenant}
	n := len(journalMagic) + 4*(len(strs)+3) + len(im.Program) + len(im.State)
	for _, f := range strs {
		n += len(f)
	}
	b := append(slices.Grow(dst, n), journalMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(e.Watermark+1))
	for _, f := range strs {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	for _, f := range [...][]byte{im.Program, im.State} {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(f))), f...)
	}
	return b
}

func decodeJournalEntry(data []byte) (*journalEntry, error) {
	nFields := 11
	switch {
	case len(data) >= len(journalMagic) && bytes.Equal(data[:len(journalMagic)], journalMagic):
	case len(data) >= len(journalMagicV1) && bytes.Equal(data[:len(journalMagicV1)], journalMagicV1):
		nFields = 10 // pre-tenant layout: no tenant field
	default:
		return nil, fmt.Errorf("mas: journal entry has bad magic")
	}
	rest := data[len(journalMagic):]
	wm, rest, err := readU32(rest)
	if err != nil {
		return nil, fmt.Errorf("mas: journal entry watermark: %w", err)
	}
	fields := make([][]byte, nFields)
	for i := range fields {
		var n uint32
		n, rest, err = readU32(rest)
		if err != nil {
			return nil, fmt.Errorf("mas: journal entry field %d: %w", i, err)
		}
		if uint32(len(rest)) < n {
			return nil, fmt.Errorf("mas: journal entry field %d truncated", i)
		}
		fields[i] = rest[:n]
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mas: journal entry has %d trailing bytes", len(rest))
	}
	// The v1 layout has no tenant field: program/vm-state slide up one
	// slot and the agent bills to the default account.
	snap := fields[len(fields)-2:]
	e := &journalEntry{
		Image: atp.Image{
			AgentID: string(fields[0]),
			Home:    string(fields[1]),
			CodeID:  string(fields[2]),
			Owner:   string(fields[3]),
			Program: append([]byte(nil), snap[0]...),
			State:   append([]byte(nil), snap[1]...),
		},
		State:     AgentState(fields[4]),
		Target:    string(fields[5]),
		Kind:      string(fields[6]),
		LastErr:   string(fields[7]),
		Watermark: int(wm) - 1,
	}
	if nFields == 11 {
		e.Tenant = string(fields[8])
	}
	if e.Image.AgentID == "" {
		return nil, fmt.Errorf("mas: journal entry missing agent id")
	}
	if !e.tombstone() && (len(e.Image.Program) == 0 || len(e.Image.State) == 0) {
		return nil, fmt.Errorf("mas: journal entry for %s missing snapshot", e.Image.AgentID)
	}
	return e, nil
}

// tombstone reports whether the entry is dedup bookkeeping only: the
// agent is no longer resident and Resume must restore its watermark
// but not re-animate it.
func (e *journalEntry) tombstone() bool {
	return e.State == StateDeparted || e.State == StateDelivered || e.State == StateDisposed
}

func readU32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("truncated uint32")
	}
	v := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
	return v, data[4:], nil
}

// entryBufs recycles the buffers journal.put encodes entries into;
// one over maxPooledEntry is left to the collector.
var entryBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledEntry = 64 << 10

// journalStripes is the per-agent lock-stripe count (power of two).
const journalStripes = 64

// journal maps agent ids to rms records over any rms.Store backend
// (MemStore in simulated worlds, a WALStore under the daemons'
// -journal flag).
//
// Locking: mu guards only index and sums and is never held across a
// store call — on a group-commit WAL a write blocks until fsync, and
// holding mu there would serialize every commit and reduce group
// commit to per-op fsync. Per-agent stripes order operations on the
// same agent id; operations on different agents run concurrently and
// batch into shared fsyncs.
type journal struct {
	store rms.Store

	mu    sync.Mutex
	index map[string]slot // agent id -> its record
	// sums is the per-tenant quota accounting: journaled bytes by tenant
	// id, tombstones included (acceptance evidence occupies the store
	// like anything else).
	sums map[string]int64

	stripes [journalStripes]sync.Mutex
}

// slot is one agent's record: its rms id, stored size and billed tenant.
type slot struct {
	rec, size int
	tenant    string
}

// indexLocked (j.mu held) points id at sl, moving its bytes between the
// tenant sums; sl.rec < 0 forgets id.
func (j *journal) indexLocked(id string, sl slot) {
	if old, ok := j.index[id]; ok {
		j.chargeLocked(old.tenant, -int64(old.size))
		delete(j.index, id)
	}
	if sl.rec >= 0 {
		j.index[id] = sl
		j.chargeLocked(sl.tenant, int64(sl.size))
	}
}

func (j *journal) chargeLocked(tenantID string, delta int64) {
	if s := j.sums[tenantID] + delta; s > 0 {
		j.sums[tenantID] = s
	} else {
		delete(j.sums, tenantID)
	}
}

// bytesByTenant snapshots the per-tenant journal footprint.
func (j *journal) bytesByTenant() map[string]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int64, len(j.sums))
	for t, n := range j.sums {
		out[t] = n
	}
	return out
}

// stripe returns the lock ordering operations on one agent id.
func (j *journal) stripe(id string) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &j.stripes[h&(journalStripes-1)]
}

// openJournal builds the id index over an existing store. Records that
// do not decode are dropped (a half-written agent must never be
// resurrected); when two records carry the same agent id the later one
// wins and the stale one is deleted.
func openJournal(store rms.Store) (*journal, error) {
	j := &journal{store: store, index: map[string]slot{}, sums: map[string]int64{}}
	ids, err := store.IDs()
	if err != nil {
		return nil, fmt.Errorf("mas: scanning journal: %w", err)
	}
	for _, recID := range ids {
		data, err := store.Get(recID)
		if err != nil {
			return nil, fmt.Errorf("mas: reading journal record %d: %w", recID, err)
		}
		e, err := decodeJournalEntry(data)
		if err != nil {
			// Corrupt entry: drop it rather than resurrect garbage.
			_ = store.Delete(recID)
			continue
		}
		id := e.Image.AgentID
		if old, ok := j.index[id]; ok {
			_ = store.Delete(old.rec)
		}
		j.indexLocked(id, slot{recID, len(data), e.Tenant})
	}
	return j, nil
}

// put inserts or replaces the entry for the agent e.Image names.
//
// A tombstone always gets a freshly allocated record id (the live
// entry it replaces is deleted, not overwritten): record ids then
// order tombstones by *completion* time, the order Resume hands them
// to the server's retirement ring.
func (j *journal) put(e *journalEntry) error {
	// The encoding lives only for this call: a store copies what it
	// keeps (rms.Store), so the buffer goes back to entryBufs.
	bp := entryBufs.Get().(*[]byte)
	data, id := e.appendTo((*bp)[:0]), e.Image.AgentID
	defer func() {
		if cap(data) <= maxPooledEntry {
			*bp = data
			entryBufs.Put(bp)
		}
	}()
	st := j.stripe(id)
	st.Lock()
	defer st.Unlock()

	j.mu.Lock()
	old, existed := j.index[id]
	j.mu.Unlock()
	recID := old.rec

	// Store writes happen here, outside j.mu: on a group-commit WAL
	// each one parks until a shared fsync, and concurrent puts for
	// other agents must be free to join the same batch. The stripe
	// held above is what keeps two puts for *this* agent ordered.
	switch {
	case e.tombstone():
		// Crash-safe replace in one ordered, trailing append: the tombstone
		// FIRST, then the delete of the superseded live entry. If a crash
		// keeps only the first both records survive, and openJournal keeps
		// the higher (newer) record id — the watermark is never lost; if it
		// keeps neither, the live entry is re-shipped (see above).
		ops := append(make([]rms.Op, 0, 2), rms.Op{Op: rms.OpAdd, Data: data})
		if existed {
			ops = append(ops, rms.Op{Op: rms.OpDelete, ID: recID})
		}
		ids, err := j.store.ApplyTrailing(ops)
		if err != nil {
			return err
		}
		recID = ids[0]
	case existed:
		if err := j.store.Set(recID, data); err != nil {
			return err
		}
	default:
		var err error
		if recID, err = j.store.Add(data); err != nil {
			return err
		}
	}

	j.mu.Lock()
	j.indexLocked(id, slot{recID, len(data), e.Tenant})
	j.mu.Unlock()
	return nil
}

// drop removes the entry for an agent id (no-op if absent).
func (j *journal) drop(id string) error {
	st := j.stripe(id)
	st.Lock()
	defer st.Unlock()
	return j.dropLocked(id)
}

// dropLocked is drop for a caller already holding id's stripe.
func (j *journal) dropLocked(id string) error {
	j.mu.Lock()
	old, ok := j.index[id]
	j.indexLocked(id, slot{rec: -1})
	j.mu.Unlock()
	if !ok {
		return nil
	}
	_, err := j.store.ApplyTrailing([]rms.Op{{Op: rms.OpDelete, ID: old.rec}})
	return err
}

// loadAll decodes every journaled entry, skipping undecodable records
// (they are deleted at openJournal time, but the store may have been
// written to behind our back).
func (j *journal) loadAll() ([]*journalEntry, error) {
	j.mu.Lock()
	recIDs := make([]int, 0, len(j.index))
	for _, sl := range j.index {
		recIDs = append(recIDs, sl.rec)
	}
	j.mu.Unlock()
	// Record-id order makes Resume deterministic (ids are allocated in
	// arrival order, and simulated worlds replay under a seed).
	sort.Ints(recIDs)
	entries := make([]*journalEntry, 0, len(recIDs))
	for _, recID := range recIDs {
		data, err := j.store.Get(recID)
		if err != nil {
			return nil, fmt.Errorf("mas: reading journal record %d: %w", recID, err)
		}
		e, err := decodeJournalEntry(data)
		if err != nil {
			continue
		}
		entries = append(entries, e)
	}
	return entries, nil
}
