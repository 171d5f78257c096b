// Package rms is a record-oriented persistent store modelled on J2ME's
// Record Management System (RMS), which the PDAgent paper uses as the
// on-device database for subscribed mobile-agent code and results.
//
// A RecordStore maps monotonically increasing integer record ids to
// opaque byte records, exactly like javax.microedition.rms.RecordStore:
// ids start at 1, deleted ids are never reused, and enumeration visits
// records in id order. Two backends are provided — a volatile in-memory
// store (MemStore) and a group-commit write-ahead log in a directory
// (WALStore) that survives power loss (replay stops at the first torn
// entry).
package rms

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common errors mirroring the RMS exception types.
var (
	// ErrNotFound is returned for operations on a record id that does
	// not exist (InvalidRecordIDException).
	ErrNotFound = errors.New("rms: record not found")
	// ErrClosed is returned for operations on a closed store
	// (RecordStoreNotOpenException).
	ErrClosed = errors.New("rms: store closed")
	// ErrStoreFull is returned when adding a record would exceed the
	// store's configured capacity (RecordStoreFullException).
	ErrStoreFull = errors.New("rms: store full")
)

// Store is the RecordStore interface shared by both backends.
type Store interface {
	// Name returns the store's name.
	Name() string
	// Add appends a record and returns its id (ids start at 1).
	Add(data []byte) (int, error)
	// Get returns a copy of the record with the given id.
	Get(id int) ([]byte, error)
	// Set replaces the record with the given id.
	Set(id int, data []byte) error
	// Delete removes the record with the given id. The id is not reused.
	Delete(id int) error
	// Apply commits ops in order behind a single durability wait and
	// returns each op's record id (the allocated one for OpAdd). The
	// whole batch is validated first — an unknown opcode, an oversize
	// record, a Set or Delete of an id that is not live at that point of
	// the batch — and a rejected batch changes nothing. The commit is
	// ordered, not atomic: a crash or I/O failure part-way leaves a
	// prefix of the batch, never a gap, so callers order their ops such
	// that every prefix is a state they recover from. ops and their Data
	// are not retained.
	Apply(ops []Op) (ids []int, err error)
	// ApplyTrailing is Apply without the durability wait: the ops are
	// validated, take their place in the same ordered log and are visible
	// to every later call when it returns, and become durable with the
	// store's next commit (a store that fsyncs bounds that wait itself).
	// A crash may lose them, and then loses every later op too — never a
	// gap. For writes whose loss the caller recovers from, such as
	// retiring a record whose subject has already been handed on.
	ApplyTrailing(ops []Op) (ids []int, err error)
	// NumRecords returns the number of live records.
	NumRecords() (int, error)
	// NextID returns the id the next Add will use.
	NextID() (int, error)
	// IDs returns the live record ids in ascending order.
	IDs() ([]int, error)
	// Size returns the total byte size of live record payloads.
	Size() (int, error)
	// Close releases the store; further operations return ErrClosed.
	Close() error
}

// Op is one mutation of an Apply batch and, with ID filled in, one
// durable mutation observed by a commit tap (CommitOp).
type Op struct {
	Op   byte   // OpAdd, OpSet or OpDelete
	ID   int    // record id; ignored by Apply for OpAdd, which allocates it
	Data []byte // payload; ignored for OpDelete
}

// payload is the bytes the op stores: none for a delete.
func (op Op) payload() []byte {
	if op.Op == OpDelete {
		return nil
	}
	return op.Data
}

// checkOps validates an Apply batch against a store's live set before
// anything is written, filling ids with each op's record id. A Set or
// Delete must name an id live at that point of the batch: in records or
// added earlier in the batch, and not deleted earlier in it.
func checkOps(name string, ops []Op, ids []int, records map[int][]byte, nextID int) error {
	first := nextID
	var deleted map[int]struct{} // ids the batch deleted that a later op could still name
	for i, op := range ops {
		switch op.Op {
		case OpAdd:
			ids[i] = nextID
			nextID++
		case OpSet, OpDelete:
			_, live := records[op.ID]
			_, gone := deleted[op.ID]
			if gone || !(live || (op.ID >= first && op.ID < nextID)) {
				return fmt.Errorf("%w: id %d in %q", ErrNotFound, op.ID, name)
			}
			ids[i] = op.ID
			if op.Op == OpDelete && i < len(ops)-1 {
				if deleted == nil {
					deleted = make(map[int]struct{})
				}
				deleted[op.ID] = struct{}{}
			}
		default:
			return fmt.Errorf("rms: unknown op %d in batch for %q", op.Op, name)
		}
		if n := len(op.payload()); n > MaxRecordSize {
			return fmt.Errorf("rms: record of %d bytes exceeds max %d", n, MaxRecordSize)
		}
	}
	return nil
}

// MemStore is a volatile in-memory record store.
type MemStore struct {
	mu       sync.RWMutex
	name     string
	records  map[int][]byte
	nextID   int
	capacity int // max total payload bytes; 0 = unlimited
	closed   bool

	tapMu sync.Mutex // serialises writers, so the sink sees application order
	sink  CommitSink // guarded by tapMu
}

// NewMemStore returns an empty in-memory store with the given name.
// capacity limits total payload bytes; 0 means unlimited.
func NewMemStore(name string, capacity int) *MemStore {
	return &MemStore{name: name, records: make(map[int][]byte), nextID: 1, capacity: capacity}
}

// Name implements Store.
func (s *MemStore) Name() string { return s.name }

// Get implements Store.
func (s *MemStore) Get(id int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	data, ok := s.records[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d in %q", ErrNotFound, id, s.name)
	}
	return clone(data), nil
}

// apply is the one write path: mutate, then hand the batch to the
// commit tap, if one is attached, after the store's lock is released.
func (s *MemStore) apply(ops []Op, ids []int) error {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	if err := s.mutate(ops, ids); err != nil {
		return err
	}
	if s.sink != nil && len(ops) > 0 {
		batch := make([]CommitOp, len(ops))
		for i, op := range ops {
			batch[i] = CommitOp{Op: op.Op, ID: ids[i], Data: clone(op.payload())}
		}
		s.sink(batch)
	}
	return nil
}

// mutate validates the batch (checkOps, then the capacity at every op
// of it), and only then touches the records.
func (s *MemStore) mutate(ops []Op, ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := checkOps(s.name, ops, ids, s.records, s.nextID); err != nil {
		return err
	}
	if s.capacity > 0 {
		size := s.liveSizeLocked()
		sizes := make(map[int]int, len(ops)) // payload size of each id the batch touched so far
		for i, op := range ops {
			old, ok := sizes[ids[i]]
			if !ok {
				old = len(s.records[ids[i]])
			}
			n := len(op.payload())
			sizes[ids[i]] = n
			if size += n - old; size > s.capacity {
				return ErrStoreFull
			}
		}
	}
	for i, op := range ops {
		if op.Op == OpDelete {
			delete(s.records, ids[i])
			continue
		}
		s.records[ids[i]] = clone(op.Data)
		if ids[i] >= s.nextID {
			s.nextID = ids[i] + 1
		}
	}
	return nil
}

// Apply implements Store. A batch that would pass the capacity at any
// op is refused whole, like any other invalid batch.
func (s *MemStore) Apply(ops []Op) ([]int, error) {
	ids := make([]int, len(ops))
	if err := s.apply(ops, ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// ApplyTrailing implements Store: a MemStore has no commit to trail.
func (s *MemStore) ApplyTrailing(ops []Op) ([]int, error) { return s.Apply(ops) }

// Add implements Store.
func (s *MemStore) Add(data []byte) (int, error) {
	var ids [1]int
	if err := s.apply([]Op{{Op: OpAdd, Data: data}}, ids[:]); err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Set implements Store.
func (s *MemStore) Set(id int, data []byte) error {
	var ids [1]int
	return s.apply([]Op{{Op: OpSet, ID: id, Data: data}}, ids[:])
}

// Delete implements Store.
func (s *MemStore) Delete(id int) error {
	var ids [1]int
	return s.apply([]Op{{Op: OpDelete, ID: id}}, ids[:])
}

// NumRecords implements Store.
func (s *MemStore) NumRecords() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.records), nil
}

// NextID implements Store.
func (s *MemStore) NextID() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.nextID, nil
}

// IDs implements Store.
func (s *MemStore) IDs() ([]int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	ids := make([]int, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// Size implements Store.
func (s *MemStore) Size() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.liveSizeLocked(), nil
}

func (s *MemStore) liveSizeLocked() int {
	total := 0
	for _, r := range s.records {
		total += len(r)
	}
	return total
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
