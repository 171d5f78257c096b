package rms

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FileStore is a record store persisted to an append-only log file.
//
// Log format: a fixed magic header followed by entries of
//
//	op   uint8   (1=add, 2=set, 3=delete)
//	id   uint32
//	size uint32  (payload length; 0 for delete)
//	crc  uint32  (IEEE CRC-32 over op|id|size|payload)
//	payload
//
// Replay stops cleanly at the first truncated or corrupt entry, which
// gives crash tolerance: a torn final write loses only that write.
// Opening truncates any torn tail away so later appends land on a
// replayable prefix. Compact rewrites the log with only live records.
//
// Appends are flushed to the OS on every call but not fsynced — a
// FileStore survives process crashes, not machine crashes. For
// fsync-durable storage use WALStore, which shares the entry format
// and adds group-commit fsync batching.
type FileStore struct {
	mu      sync.Mutex
	name    string
	path    string
	f       *os.File
	w       *bufio.Writer
	records map[int][]byte
	nextID  int
	// size is the length of the flushed, well-formed log prefix. After
	// a failed append it is the offset the file must be truncated back
	// to before the next entry may be written.
	size int64
	// tornTail records that an append failed part-way: bytes past
	// size may be garbage on disk and must be truncated before the
	// next append, or replay would stop at the tear forever.
	tornTail bool
	// scratch stages one encoded entry so the log never sees a
	// partially encoded record from this process.
	scratch []byte
	// garbage counts superseded log bytes; Compact resets it.
	garbage int
	closed  bool
}

var fileMagic = []byte("PDRMS1\n")

const (
	opAdd    = 1
	opSet    = 2
	opDelete = 3

	entryHeaderSize = 1 + 4 + 4 + 4

	// MaxRecordSize bounds one record payload; larger Add/Set calls are
	// rejected so a corrupt length field cannot trigger a huge allocation.
	MaxRecordSize = 16 << 20
)

// OpenFileStore opens (creating if needed) the store persisted at path.
// The store name is the file base name without extension.
func OpenFileStore(path string) (*FileStore, error) {
	name := filepath.Base(path)
	if ext := filepath.Ext(name); ext != "" {
		name = name[:len(name)-len(ext)]
	}
	s := &FileStore{
		name:    name,
		path:    path,
		records: make(map[int][]byte),
		nextID:  1,
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rms: opening %s: %w", path, err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if _, err := s.w.Write(fileMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("rms: writing magic: %w", err)
		}
		if err := s.flushLocked(); err != nil {
			f.Close()
			return nil, err
		}
		s.size = int64(len(fileMagic))
	}
	return s, nil
}

func (s *FileStore) load() error {
	f, err := os.Open(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("rms: opening %s: %w", s.path, err)
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		// Empty or truncated header: treat as a fresh store, dropping
		// the torn header bytes so the next append starts clean.
		f.Close()
		return s.truncateTail(0)
	}
	if string(magic) != string(fileMagic) {
		f.Close()
		return fmt.Errorf("rms: %s is not a record store (bad magic)", s.path)
	}
	valid := int64(len(fileMagic))
	for {
		op, id, payload, n, ok := readLogEntry(r)
		if !ok {
			break // clean EOF, torn tail or corrupt entry: stop replay
		}
		s.applyEntry(op, id, payload)
		valid += int64(n)
	}
	st, err := f.Stat()
	f.Close()
	if err != nil {
		return fmt.Errorf("rms: stat %s: %w", s.path, err)
	}
	if st.Size() > valid {
		// A torn or corrupt tail survives on disk. Truncate it away:
		// otherwise every later append lands *after* the tear and is
		// silently unreachable on the next replay.
		return s.truncateTail(valid)
	}
	s.size = st.Size()
	return nil
}

// applyEntry folds one log entry — replayed at load, or just
// appended — into the in-memory state.
func (s *FileStore) applyEntry(op byte, id int, payload []byte) {
	switch op {
	case opAdd, opSet:
		if old, ok := s.records[id]; ok {
			s.garbage += entryHeaderSize + len(old)
		}
		s.records[id] = payload
	case opDelete:
		if old, ok := s.records[id]; ok {
			s.garbage += 2*entryHeaderSize + len(old)
			delete(s.records, id)
		}
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// truncateTail cuts the log back to its valid prefix during load.
func (s *FileStore) truncateTail(valid int64) error {
	if err := os.Truncate(s.path, valid); err != nil {
		return fmt.Errorf("rms: truncating torn tail of %s: %w", s.path, err)
	}
	s.size = valid
	return nil
}

// appendEntry stages the encoded entry in a scratch buffer and writes
// it through as one unit. On failure the buffered writer is reset (so a
// later successful append can never flush a torn prefix) and the file
// is truncated back to the last good offset before the next write.
func (s *FileStore) appendEntry(op byte, id int, payload []byte) error {
	if s.tornTail {
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("rms: truncating torn tail of %s: %w", s.path, err)
		}
		s.tornTail = false
	}
	s.scratch = appendLogEntry(s.scratch[:0], op, id, payload)
	if _, err := s.w.Write(s.scratch); err != nil {
		s.w.Reset(s.f)
		s.tornTail = true
		return fmt.Errorf("rms: appending to %s: %w", s.path, err)
	}
	if err := s.w.Flush(); err != nil {
		s.w.Reset(s.f)
		s.tornTail = true
		return fmt.Errorf("rms: appending to %s: %w", s.path, err)
	}
	s.size += int64(len(s.scratch))
	return nil
}

func (s *FileStore) flushLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("rms: flushing %s: %w", s.path, err)
	}
	return nil
}

// Name implements Store.
func (s *FileStore) Name() string { return s.name }

// Get implements Store.
func (s *FileStore) Get(id int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	data, ok := s.records[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d in %q", ErrNotFound, id, s.name)
	}
	return clone(data), nil
}

// apply is the one write path: validate the batch, then append and
// fold each op in order. FileStore never fsyncs on the write path, so
// there is no commit to wait for.
func (s *FileStore) apply(ops []Op, ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := checkOps(s.name, ops, ids, s.records, s.nextID); err != nil {
		return err
	}
	for i, op := range ops {
		if err := s.appendEntry(op.Op, ids[i], op.payload()); err != nil {
			return err
		}
		s.applyEntry(op.Op, ids[i], clone(op.payload()))
	}
	return nil
}

// Apply implements Store.
func (s *FileStore) Apply(ops []Op) ([]int, error) {
	ids := make([]int, len(ops))
	if err := s.apply(ops, ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// Add implements Store.
func (s *FileStore) Add(data []byte) (int, error) {
	var ids [1]int
	if err := s.apply([]Op{{Op: OpAdd, Data: data}}, ids[:]); err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Set implements Store.
func (s *FileStore) Set(id int, data []byte) error {
	var ids [1]int
	return s.apply([]Op{{Op: OpSet, ID: id, Data: data}}, ids[:])
}

// Delete implements Store.
func (s *FileStore) Delete(id int) error {
	var ids [1]int
	return s.apply([]Op{{Op: OpDelete, ID: id}}, ids[:])
}

// NumRecords implements Store.
func (s *FileStore) NumRecords() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.records), nil
}

// NextID implements Store.
func (s *FileStore) NextID() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.nextID, nil
}

// IDs implements Store.
func (s *FileStore) IDs() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
func (s *FileStore) Size() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	total := 0
	for _, r := range s.records {
		total += len(r)
	}
	return total, nil
}

// Garbage returns the bytes of superseded log entries accumulated since
// the last Compact (or open).
func (s *FileStore) Garbage() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.garbage
}

// Compact rewrites the log with only live records, preserving ids and
// the next-id watermark. The rewrite goes to a temp file that is
// fsynced, renamed over the original, and sealed with a directory
// fsync — so a crash at any point leaves either the old log or the
// complete new one, never neither. The live handle is only swapped
// after the rename succeeds: a failed compaction cleans up its temp
// file and leaves the store fully operational on the old log.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("rms: creating compact file: %w", err)
	}
	// Until the rename lands, every failure path must drop both the
	// temp handle and the temp file.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	newSize := int64(len(fileMagic))
	bw := bufio.NewWriter(tmp)
	if _, err := bw.Write(fileMagic); err != nil {
		return fail(fmt.Errorf("rms: compacting %s: %w", s.path, err))
	}
	ids := make([]int, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	writeEntry := func(op byte, id int, payload []byte) error {
		s.scratch = appendLogEntry(s.scratch[:0], op, id, payload)
		_, err := bw.Write(s.scratch)
		newSize += int64(len(s.scratch))
		return err
	}
	for _, id := range ids {
		if err := writeEntry(opAdd, id, s.records[id]); err != nil {
			return fail(fmt.Errorf("rms: compacting %s: %w", s.path, err))
		}
	}
	// Preserve the id watermark across reopen even if the top record was
	// deleted: a delete entry for nextID-1 replays the watermark.
	if top := s.nextID - 1; top >= 1 {
		if _, live := s.records[top]; !live {
			if err := writeEntry(opDelete, top, nil); err != nil {
				return fail(fmt.Errorf("rms: compacting %s: %w", s.path, err))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("rms: compacting %s: %w", s.path, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("rms: syncing compact file: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("rms: closing compact file: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("rms: swapping compact file: %w", err)
	}
	// Make the swap itself durable: without the directory fsync a crash
	// here can resurrect the old log — or lose the new one — on
	// journalled filesystems that haven't persisted the dirent yet.
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return fmt.Errorf("rms: syncing directory after compact: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rename landed but we cannot append any more. Keep the old
		// handle (it points at the now-orphaned inode) so the store
		// fails loudly on the next write instead of panicking on nil.
		return fmt.Errorf("rms: reopening %s: %w", s.path, err)
	}
	s.f.Close()
	s.f = f
	s.w = bufio.NewWriter(f)
	s.garbage = 0
	s.size = newSize
	s.tornTail = false
	return nil
}

// Close implements Store. A clean shutdown fsyncs the log, so records
// written before Close survive machine crashes, not just process exits.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("rms: flushing %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("rms: syncing %s: %w", s.path, err)
	}
	return s.f.Close()
}

// DeleteStore removes the persisted file of a (closed) store.
func DeleteStore(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("rms: deleting store: %w", err)
	}
	return nil
}
