package rms

// The commit tap is the hook warm-standby replication hangs off
// (DESIGN.md §10): a store with a CommitSink attached hands every
// *durable* mutation — in commit order, exactly once per process
// lifetime — to the sink, which ships it to a standby. The tap speaks
// in store operations (add/set/delete on record ids), not bytes, so a
// replica can be rebuilt behind any Store backend.

// Commit opcodes, aliases of the on-disk log opcodes so a tapped
// operation can be framed with the same codec the WAL uses.
const (
	OpAdd    byte = opAdd
	OpSet    byte = opSet
	OpDelete byte = opDelete
)

// CommitOp is one durable mutation observed by a commit tap: an Op
// whose ID is always the record id it landed on.
type CommitOp = Op

// CommitSink receives batches of durable mutations in commit order.
// Batches never overlap: the tap serializes invocations, so a sink
// needs no locking against itself. The sink must not call back into
// the store it taps.
type CommitSink func(ops []CommitOp)

// Tapped is implemented by stores that can attach a CommitSink: every
// store in the tree (MemStore, WALStore).
type Tapped interface {
	Store
	SetCommitSink(sink CommitSink)
}

var (
	_ Tapped = (*MemStore)(nil)
	_ Tapped = (*WALStore)(nil)
)

// SetCommitSink attaches (or replaces) the sink (implements Tapped).
// The sink is called once per successful Apply/Add/Set/Delete, in
// application order, with the allocated ids — the in-memory analogue of
// the WALStore's tap, for simulations that replicate MemStore-backed
// journals. Mutations already in flight complete against the previous
// sink. Writers serialise on the tap's own mutex, not the store's, so
// Get and IDs never wait behind a sink doing a semi-sync round trip.
func (s *MemStore) SetCommitSink(sink CommitSink) {
	s.tapMu.Lock()
	s.sink = sink
	s.tapMu.Unlock()
}

// NewMemStoreFrom builds an in-memory store pre-loaded with records —
// how a promoted standby materialises its replica into a Store the
// journal and mailbox machinery can replay. nextID must be at least
// one past the highest record id (it is raised if not, so a replica
// that lagged on the id watermark still yields a coherent store).
func NewMemStoreFrom(name string, nextID int, records map[int][]byte) *MemStore {
	s := NewMemStore(name, 0)
	for id, data := range records {
		s.records[id] = clone(data)
		if id >= nextID {
			nextID = id + 1
		}
	}
	if nextID > s.nextID {
		s.nextID = nextID
	}
	return s
}

// StoreErr probes a store's sticky health error, unwrapping wrapper
// layers to reach a backend that reports one (WALStore.Err). Healthy
// stores — and backends without a health probe — return nil. Embedders
// poll it instead of discovering a wedged store one failed write at a
// time.
func StoreErr(s Store) error {
	for s != nil {
		if h, ok := s.(interface{ Err() error }); ok {
			return h.Err()
		}
		u, ok := s.(interface{ Unwrap() Store })
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// tapOp is one buffered, not-yet-emitted mutation in a WALStore tap.
type tapOp struct {
	lsn uint64
	op  CommitOp
}

// SetCommitSink attaches a commit tap to the WAL (implements Tapped).
// Only mutations appended after the call are observed; a replication
// layer pairs the tap with an initial snapshot of the live set.
func (s *WALStore) SetCommitSink(sink CommitSink) {
	s.mu.Lock()
	s.sink = sink
	s.tapped.Store(sink != nil)
	s.mu.Unlock()
}

// Err returns the store's sticky wedge error, if a write or fsync
// failure has permanently failed the store (nil while healthy). The
// embedder polls it as a health signal instead of discovering the
// wedge one failed operation at a time.
func (s *WALStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fail
}

// sinkWait drains the tap buffer through the sink until the caller's
// lsn has been emitted. Like commitWait it elects a leader (the
// sinking ticket): one caller drains every buffered op that fsync
// already covers while the rest park, so sink invocations are strictly
// serialized and ordered even under concurrent commits. The sink runs
// outside the store mutex — a semi-sync sink doing a network round
// trip cannot stall appends, only its own committers.
func (s *WALStore) sinkWait(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.sink == nil || s.sunk >= lsn || s.closed || s.fail != nil {
			return
		}
		if !s.sinking {
			s.sinking = true
			durable := s.lsn
			if s.opts.Sync != SyncNever {
				durable = s.synced
			}
			n := 0
			for n < len(s.tapBuf) && s.tapBuf[n].lsn <= durable {
				n++
			}
			batch := make([]CommitOp, n)
			for i := 0; i < n; i++ {
				batch[i] = s.tapBuf[i].op
			}
			rest := copy(s.tapBuf, s.tapBuf[n:])
			for i := rest; i < len(s.tapBuf); i++ {
				s.tapBuf[i] = tapOp{} // release payload references
			}
			s.tapBuf = s.tapBuf[:rest]
			sink := s.sink
			s.mu.Unlock()
			if len(batch) > 0 {
				sink(batch)
			}
			s.mu.Lock()
			s.sinking = false
			if durable > s.sunk {
				s.sunk = durable
			}
			s.commit.Broadcast()
			continue
		}
		s.commit.Wait()
	}
}
