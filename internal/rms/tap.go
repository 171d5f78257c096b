package rms

import (
	"sync"
)

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

// Tapped is implemented by stores that can attach a CommitSink
// (WALStore natively; any other Store via NewTappedStore).
type Tapped interface {
	Store
	SetCommitSink(sink CommitSink)
}

// TappedStore wraps any Store and invokes a CommitSink synchronously
// after each successful mutation. Mutations are serialized on the
// wrapper's mutex so the sink observes them in application order —
// the in-memory analogue of the WALStore's native tap, used by
// simulations that replicate MemStore-backed journals.
type TappedStore struct {
	inner Store
	mu    sync.Mutex
	sink  CommitSink
}

// NewTappedStore wraps inner with a commit tap. The sink may be nil
// and attached later with SetCommitSink.
func NewTappedStore(inner Store, sink CommitSink) *TappedStore {
	return &TappedStore{inner: inner, sink: sink}
}

// SetCommitSink attaches (or replaces) the sink. Mutations already in
// flight complete against the previous sink.
func (s *TappedStore) SetCommitSink(sink CommitSink) {
	s.mu.Lock()
	s.sink = sink
	s.mu.Unlock()
}

// Unwrap returns the wrapped store.
func (s *TappedStore) Unwrap() Store { return s.inner }

// Name implements Store.
func (s *TappedStore) Name() string { return s.inner.Name() }

// Apply implements Store: the sink sees the batch once, in order, with
// the allocated ids.
func (s *TappedStore) Apply(ops []Op) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.inner.Apply(ops)
	if err == nil && s.sink != nil {
		batch := make([]CommitOp, len(ops))
		for i, op := range ops {
			batch[i] = CommitOp{Op: op.Op, ID: ids[i], Data: clone(op.payload())}
		}
		s.sink(batch)
	}
	return ids, err
}

// Add implements Store.
func (s *TappedStore) Add(data []byte) (int, error) {
	ids, err := s.Apply([]Op{{Op: OpAdd, Data: data}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Set implements Store.
func (s *TappedStore) Set(id int, data []byte) error {
	_, err := s.Apply([]Op{{Op: OpSet, ID: id, Data: data}})
	return err
}

// Delete implements Store.
func (s *TappedStore) Delete(id int) error {
	_, err := s.Apply([]Op{{Op: OpDelete, ID: id}})
	return err
}

// Get implements Store.
func (s *TappedStore) Get(id int) ([]byte, error) { return s.inner.Get(id) }

// NumRecords implements Store.
func (s *TappedStore) NumRecords() (int, error) { return s.inner.NumRecords() }

// NextID implements Store.
func (s *TappedStore) NextID() (int, error) { return s.inner.NextID() }

// IDs implements Store.
func (s *TappedStore) IDs() ([]int, error) { return s.inner.IDs() }

// Size implements Store.
func (s *TappedStore) Size() (int, error) { return s.inner.Size() }

// Close implements Store.
func (s *TappedStore) Close() error { return s.inner.Close() }

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

// StoreErr probes a store's sticky health error, unwrapping TappedStore
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
