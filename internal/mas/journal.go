package mas

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

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
// The previous magic "MASJ1" (the same layout minus the tenant field)
// is still accepted on read: a journal written before the multi-tenant
// control plane re-hydrates with every agent in the default account.
//
// target/kind are non-empty only while a transfer is pending (the
// agent suspended at migrate, or parked after a failed transfer); they
// tell Resume where the retry must go. The watermark persists the
// receiver-side dedup key (agent id + hop counter) across restarts, so
// a sender retrying a transfer the dead server had already accepted
// gets an idempotent commit-ack instead of landing a second copy.
//
// Once an agent leaves a server (departed onward, delivered home,
// disposed), its entry is replaced by a slim *tombstone* — the same
// encoding with empty snapshots — because the watermark must outlive
// the resident copy: a sender that never saw our ack may retry after
// we have already forwarded the agent, and a crash must not erase the
// evidence that the hop was accepted. Tombstones are capped at
// maxJournalTombstones per store (oldest evicted first); retries
// arrive on RetryParked/restart timescales, so the window a watermark
// must actually cover is short.
//
// The writes that retire an agent that is no longer here — the tombstone
// replace, drop, a tombstone's eviction — are trailing appends
// (rms.Store.ApplyTrailing): in log order, durable with the store's next
// commit, waited for by nobody. A crash that loses one leaves the live
// entry it would have retired, which is the state "crashed between the
// receiver's OK and the tombstone write": Resume re-ships to the
// journaled target and the receiver's watermark, or the home side's
// idempotent result intake, answers the duplicate. Every write that is
// at that moment the only durable copy of an agent keeps its wait.

// journalMagic versions the journal entry encoding; journalMagicV1 is
// the pre-tenant layout, read-compatible but never written anew.
var (
	journalMagic   = []byte("MASJ2")
	journalMagicV1 = []byte("MASJ1")
)

// journalEntry is one agent's durable snapshot.
type journalEntry struct {
	ID      string
	Home    string
	CodeID  string
	Owner   string
	State   AgentState
	Target  string // pending transfer destination ("" = none)
	Kind    string // pending transfer kind ("" = none)
	LastErr string
	// Tenant is the account the agent is billed to ("" = default).
	Tenant string
	// Watermark is the highest sent-hop counter accepted over
	// /atp/transfer for this agent (-1 when it was admitted locally).
	Watermark int
	// Program and VMState are the mavm snapshots.
	Program []byte
	VMState []byte
}

func (e *journalEntry) encode() []byte {
	var b bytes.Buffer
	b.Write(journalMagic)
	writeU32(&b, uint32(e.Watermark+1))
	for _, f := range [][]byte{
		[]byte(e.ID), []byte(e.Home), []byte(e.CodeID), []byte(e.Owner),
		[]byte(e.State), []byte(e.Target), []byte(e.Kind), []byte(e.LastErr),
		[]byte(e.Tenant), e.Program, e.VMState,
	} {
		writeU32(&b, uint32(len(f)))
		b.Write(f)
	}
	return b.Bytes()
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
		ID:        string(fields[0]),
		Home:      string(fields[1]),
		CodeID:    string(fields[2]),
		Owner:     string(fields[3]),
		State:     AgentState(fields[4]),
		Target:    string(fields[5]),
		Kind:      string(fields[6]),
		LastErr:   string(fields[7]),
		Watermark: int(wm) - 1,
		Program:   append([]byte(nil), snap[0]...),
		VMState:   append([]byte(nil), snap[1]...),
	}
	if nFields == 11 {
		e.Tenant = string(fields[8])
	}
	if e.ID == "" {
		return nil, fmt.Errorf("mas: journal entry missing agent id")
	}
	if !e.tombstone() && (len(e.Program) == 0 || len(e.VMState) == 0) {
		return nil, fmt.Errorf("mas: journal entry for %s missing snapshot", e.ID)
	}
	return e, nil
}

// tombstone reports whether the entry is dedup bookkeeping only: the
// agent is no longer resident and Resume must restore its watermark
// but not re-animate it.
func (e *journalEntry) tombstone() bool {
	return e.State == StateDeparted || e.State == StateDelivered || e.State == StateDisposed
}

func writeU32(b *bytes.Buffer, v uint32) {
	b.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func readU32(data []byte) (uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("truncated uint32")
	}
	v := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
	return v, data[4:], nil
}

// maxJournalTombstones bounds the dedup tombstones retained per store
// so a long-running daemon's journal does not grow without bound.
const maxJournalTombstones = 4096

// journalStripes is the per-agent lock-stripe count (power of two).
const journalStripes = 64

// journal maps agent ids to rms records over any rms.Store backend
// (MemStore in simulated worlds, a WALStore under the daemons'
// -journal flag).
//
// Locking: mu guards only the index maps and is never held across a
// store call — on a group-commit WAL a write blocks until fsync, and
// holding mu there would serialize every commit and reduce group
// commit to per-op fsync. Per-agent stripes order operations on the
// same agent id; operations on different agents run concurrently and
// batch into shared fsyncs.
type journal struct {
	store rms.Store

	mu    sync.Mutex
	index map[string]int // agent id -> rms record id
	tombs map[string]int // subset of index holding tombstones

	// Per-tenant quota accounting, maintained in lock-step with index:
	// sizes/owners track each record's stored size and billed account,
	// sums the running per-tenant byte totals (tombstones included —
	// acceptance evidence occupies the store like anything else).
	sizes  map[string]int    // agent id -> stored entry size
	owners map[string]string // agent id -> tenant id
	sums   map[string]int64  // tenant id -> journaled bytes

	stripes [journalStripes]sync.Mutex
}

// accountLocked (j.mu held) re-bills an agent's journal footprint:
// size < 0 forgets the record, otherwise the delta against the prior
// size moves between tenant sums.
func (j *journal) accountLocked(id, tenantID string, size int) {
	if old, ok := j.sizes[id]; ok {
		j.chargeLocked(j.owners[id], -int64(old))
	}
	if size < 0 {
		delete(j.sizes, id)
		delete(j.owners, id)
		return
	}
	j.sizes[id] = size
	j.owners[id] = tenantID
	j.chargeLocked(tenantID, int64(size))
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
	j := &journal{
		store: store, index: map[string]int{}, tombs: map[string]int{},
		sizes: map[string]int{}, owners: map[string]string{}, sums: map[string]int64{},
	}
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
		if old, ok := j.index[e.ID]; ok {
			_ = store.Delete(old)
		}
		j.index[e.ID] = recID
		j.accountLocked(e.ID, e.Tenant, len(data))
		if e.tombstone() {
			j.tombs[e.ID] = recID
		} else {
			delete(j.tombs, e.ID)
		}
	}
	return j, nil
}

// put inserts or replaces the entry for e.ID, evicting the oldest
// tombstone when the bound is exceeded. It returns the agent id of an
// evicted tombstone (""), so the server can prune the matching
// in-memory watermark.
//
// A tombstone always gets a freshly allocated record id (the live
// entry it replaces is deleted, not overwritten): record ids then
// order tombstones by *completion* time, so eviction removes the
// stalest acceptance evidence first and can never remove the
// tombstone that was just written.
func (j *journal) put(e *journalEntry) (evicted string, err error) {
	data := e.encode()
	st := j.stripe(e.ID)
	st.Lock()
	defer st.Unlock()

	j.mu.Lock()
	recID, existed := j.index[e.ID]
	j.mu.Unlock()

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
			return "", err
		}
		recID = ids[0]
	case existed:
		if err := j.store.Set(recID, data); err != nil {
			return "", err
		}
	default:
		recID, err = j.store.Add(data)
		if err != nil {
			return "", err
		}
	}

	evictRec := -1
	j.mu.Lock()
	j.index[e.ID] = recID
	j.accountLocked(e.ID, e.Tenant, len(data))
	if e.tombstone() {
		j.tombs[e.ID] = recID
		if len(j.tombs) > maxJournalTombstones {
			oldID, oldRec := "", -1
			for id, rid := range j.tombs {
				if oldRec == -1 || rid < oldRec {
					oldID, oldRec = id, rid
				}
			}
			// The victim's stripe must be held while its record dies,
			// or a concurrent re-arrival's Set on that record would
			// race the Delete. TryLock, because a blocking Lock here
			// could deadlock against another evicting put; on failure
			// skip this round — the cap is soft and the next tombstone
			// retries.
			vst := j.stripe(oldID)
			held := vst == st // victim shares our stripe: already held
			if !held && vst.TryLock() {
				held = true
				defer vst.Unlock()
			}
			if held {
				delete(j.tombs, oldID)
				delete(j.index, oldID)
				j.accountLocked(oldID, "", -1)
				evicted, evictRec = oldID, oldRec
			}
		}
	} else {
		delete(j.tombs, e.ID)
	}
	j.mu.Unlock()
	if evictRec >= 0 {
		// Trailing, like the tombstone that pushed it out. Best-effort: a
		// failed or lost eviction leaves a record openJournal re-indexes.
		_, _ = j.store.ApplyTrailing([]rms.Op{{Op: rms.OpDelete, ID: evictRec}})
	}
	return evicted, nil
}

// drop removes the entry for an agent id (no-op if absent).
func (j *journal) drop(id string) error {
	st := j.stripe(id)
	st.Lock()
	defer st.Unlock()
	j.mu.Lock()
	recID, ok := j.index[id]
	if ok {
		delete(j.index, id)
		delete(j.tombs, id)
		j.accountLocked(id, "", -1)
	}
	j.mu.Unlock()
	if !ok {
		return nil
	}
	_, err := j.store.ApplyTrailing([]rms.Op{{Op: rms.OpDelete, ID: recID}})
	return err
}

// loadAll decodes every journaled entry, skipping undecodable records
// (they are deleted at openJournal time, but the store may have been
// written to behind our back).
func (j *journal) loadAll() ([]*journalEntry, error) {
	j.mu.Lock()
	recIDs := make([]int, 0, len(j.index))
	for _, recID := range j.index {
		recIDs = append(recIDs, recID)
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
