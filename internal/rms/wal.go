package rms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/metrics"
)

// WALStore is the fsync-durable record store: a segmented write-ahead
// log with group-commit batching behind the same Store interface as
// MemStore.
//
// Durability. Under the default SyncGroup policy every Add/Set/Delete
// returns only after an fsync covers its entry — but concurrent
// callers park on a commit ticket and a single fsync acks the whole
// batch (the etcd/pebble group-commit pipeline): while one caller
// holds the sync, later arrivals keep appending to the buffered
// segment, and the next fsync covers all of them at once. SyncNever
// never fsyncs on the write path (simulations and tests). One caller
// with several ops in hand gives them to Apply, which appends them all
// and waits once — group commit cannot batch writes that arrive one
// after another from the same goroutine. ApplyTrailing appends in the
// same log order and does not wait at all: its ops are durable with the
// next commit anyone waits for, or with a sync the store starts itself
// trailingSyncBound after the first un-synced one (DESIGN.md §9).
//
// Layout. A WALStore lives in a directory:
//
//	wal-<seq>.seg   log segments (magic + checksummed entry frames)
//	snap-<seq>.snap snapshot of all live records in segments < seq
//
// Appends go to the highest segment; at SegmentBytes it is fsynced,
// closed and a fresh segment started. When superseded bytes pass
// CompactGarbage, a snapshot of the live set is written (temp file,
// fsync, rename, directory fsync) and the segments it covers are
// deleted — recovery replay stays bounded by live data + one segment
// of garbage, no matter how much traffic has flowed through.
//
// Recovery loads the newest valid snapshot, replays the segments at or
// above its base in order, stops at the first torn or corrupt entry,
// and truncates the tear away so the store resumes on a clean prefix.
// An entry is replayed only if every byte of it reached disk; an entry
// was acked only if fsync covered it — so under SyncGroup no acked
// write is ever lost, at any crash point.
//
// A write or fsync failure wedges the store permanently (the fsyncgate
// discipline: after a failed fsync the page cache is unreliable, so
// pretending to continue would turn "slow" into "silently lossy").
type WALStore struct {
	name string
	dir  string
	fs   walFS
	opts WALOptions

	mu      sync.Mutex
	commit  *sync.Cond // group-commit ticket: synced/syncing changes
	records map[int][]byte
	nextID  int
	garbage int
	closed  bool
	fail    error // sticky wedge after a write/fsync failure

	seg    walFile
	w      *bufio.Writer
	segSeq uint64
	segOff int64 // bytes appended to the active segment (incl. magic)

	lsn     uint64 // sequence of the last appended entry
	synced  uint64 // highest lsn covered by an fsync
	syncing bool   // a group-commit leader's fsync is in flight

	// Trailing appends (ApplyTrailing): entries nobody waits on. An
	// un-synced tail starts at trailFirst, appended at trailSince, when a
	// trailing batch finds everything before it synced; trailTimer, armed
	// while there may be one, syncs the log once that tail is
	// trailingBound old, so no trailing entry stays volatile longer.
	trailFirst uint64
	trailSince time.Time
	trailTimer *time.Timer

	// Commit tap (replication, DESIGN.md §10): mutations buffer in
	// tapBuf at append time and a sink leader drains everything fsync
	// has covered, in order, after the commit that made them durable.
	sink    CommitSink
	tapBuf  []tapOp
	sunk    uint64      // highest lsn emitted to the sink
	sinking bool        // a sink leader's drain is in flight
	tapped  atomic.Bool // fast-path check: is a sink attached?

	// Observability (DESIGN.md §11): all atomics, so Stats() and the
	// gateway's per-dispatch shed check read them without taking mu.
	fsyncs     atomic.Uint64
	lastFsync  atomic.Int64  // duration of the most recent fsync, ns
	maxFsync   atomic.Int64  // slowest fsync since open, ns
	groupedOps atomic.Uint64 // entries acked by group-commit fsyncs
	segs       atomic.Uint64 // mirror of segSeq
	snaps      atomic.Uint64 // snapshots written since open
	logBytes   atomic.Uint64 // log frame bytes appended since open
	trailed    atomic.Uint64 // trailing entries appended since open
	trailSafe  atomic.Uint64 // ... of which an fsync has covered
	trailSyncs atomic.Uint64 // bound expiries that found a tail to sync

	scratch []byte
	snapErr error // last auto-snapshot failure (surfaced by Compact)
}

// noteFsync records one completed fsync and how long it stalled.
func (s *WALStore) noteFsync(d time.Duration) {
	s.fsyncs.Add(1)
	s.lastFsync.Store(int64(d))
	for {
		cur := s.maxFsync.Load()
		if int64(d) <= cur || s.maxFsync.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// SyncPolicy selects the WAL's fsync discipline.
type SyncPolicy int

const (
	// SyncGroup is the default: writers park on a commit ticket and one
	// fsync acks the whole concurrent batch.
	SyncGroup SyncPolicy = iota
	// SyncNever performs no write-path fsyncs (rotation, snapshot and
	// Close still sync). For simulations and benchmarks.
	SyncNever
)

// Defaults for WALOptions zero values.
const (
	DefaultSegmentBytes   = 4 << 20
	DefaultCompactGarbage = 1 << 20
)

// trailingSyncBound is the longest a trailing append stays un-synced on
// an open store: a store with no waited commit to ride syncs its tail
// itself this long after the first un-synced trailing entry.
const trailingSyncBound = time.Second

// WALOptions tunes a WALStore. The zero value is production-ready:
// group commit, 4 MiB segments, snapshot at 1 MiB of garbage.
type WALOptions struct {
	// Sync is the fsync discipline (default SyncGroup).
	Sync SyncPolicy
	// SegmentBytes rotates the active segment past this size.
	SegmentBytes int
	// CompactGarbage triggers a snapshot once superseded log bytes
	// pass this threshold (checked at segment rotation).
	CompactGarbage int

	// fs overrides the filesystem (crash-injection tests only).
	fs walFS
	// trailingBound overrides trailingSyncBound (tests only).
	trailingBound time.Duration
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

var (
	segMagic  = []byte("PDWALSEG1\n")
	snapMagic = []byte("PDWALSNAP1\n")
)

// snapHeaderSize is magic + nextID u64 + count u64 + crc u32.
var snapHeaderSize = len(snapMagic) + 8 + 8 + 4

// OpenWALStore opens (creating if needed) the WAL persisted in dir.
// The store name is the directory base name without extension.
func OpenWALStore(dir string, opts WALOptions) (*WALStore, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.CompactGarbage <= 0 {
		opts.CompactGarbage = DefaultCompactGarbage
	}
	if opts.trailingBound <= 0 {
		opts.trailingBound = trailingSyncBound
	}
	fs := opts.fs
	if fs == nil {
		fs = osFS{}
	}
	name := filepath.Base(dir)
	if ext := filepath.Ext(name); ext != "" {
		name = name[:len(name)-len(ext)]
	}
	s := &WALStore{
		name:    name,
		dir:     dir,
		fs:      fs,
		opts:    opts,
		records: make(map[int][]byte),
		nextID:  1,
	}
	s.commit = sync.NewCond(&s.mu)
	if head, err := fs.ReadFile(dir); err == nil && bytes.HasPrefix(head, []byte("PDRMS1\n")) {
		return nil, fmt.Errorf("rms: %s is a single-file store written by an earlier build; this version reads WAL directories only", dir)
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("rms: creating wal dir %s: %w", dir, err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *WALStore) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix))
}

func (s *WALStore) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return seq, err == nil
}

// recover rebuilds the in-memory state from the directory: newest
// valid snapshot, then segment replay, then tail repair and cleanup.
func (s *WALStore) recover() error {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("rms: scanning wal dir %s: %w", s.dir, err)
	}
	var segSeqs, snapSeqs []uint64
	var tmps []string
	for _, n := range names {
		if seq, ok := parseSeq(n, segPrefix, segSuffix); ok {
			segSeqs = append(segSeqs, seq)
		} else if seq, ok := parseSeq(n, snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if strings.HasSuffix(n, tmpSuffix) {
			tmps = append(tmps, n)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })

	// Newest parseable snapshot wins. The sync ordering (file fsync →
	// rename → dir fsync → only then segment deletion) means a durable
	// snapshot is a complete snapshot; an unparseable one is tolerated
	// only if the segments it covered still exist.
	base := uint64(0)
	loaded := false
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		if err := s.loadSnapshot(snapSeqs[i]); err == nil {
			base, loaded = snapSeqs[i], true
			break
		}
	}
	if !loaded && len(snapSeqs) > 0 {
		// No snapshot parsed. Full replay is only sound if the log
		// still starts at segment 1.
		if len(segSeqs) == 0 || segSeqs[0] != 1 {
			return fmt.Errorf("rms: wal %s: no valid snapshot and segments start at %d — refusing to open with silent data loss", s.name, first(segSeqs))
		}
	}

	// Replay segments >= base, in order, stopping at the first torn or
	// corrupt entry or the first gap in the sequence.
	var replayed []uint64
	tornSeq, tornLen := uint64(0), int64(-1)
	prev := uint64(0)
	for _, seq := range segSeqs {
		if seq < base {
			continue
		}
		if prev != 0 && seq != prev+1 {
			break // gap: a segment is missing, nothing past it is trustworthy
		}
		prev = seq
		valid, torn, err := s.replaySegment(seq)
		replayed = append(replayed, seq)
		if err != nil {
			return err
		}
		if torn {
			tornSeq, tornLen = seq, valid
			break
		}
	}

	// Tail repair: truncate the tear, drop anything beyond it.
	active := uint64(0)
	if len(replayed) > 0 {
		active = replayed[len(replayed)-1]
	}
	if tornLen >= 0 {
		if tornLen < int64(len(segMagic)) {
			tornLen = 0
		}
		if err := s.fs.Truncate(s.segPath(tornSeq), tornLen); err != nil {
			return fmt.Errorf("rms: truncating torn wal segment: %w", err)
		}
	}
	for _, seq := range segSeqs {
		if active != 0 && seq > active {
			_ = s.fs.Remove(s.segPath(seq)) // past a tear or a gap: uncommitted
		}
	}

	// Cleanup: stale snapshots, covered segments, temp litter.
	for _, seq := range snapSeqs {
		if !loaded || seq != base {
			_ = s.fs.Remove(s.snapPath(seq))
		}
	}
	for _, seq := range segSeqs {
		if seq < base {
			_ = s.fs.Remove(s.segPath(seq))
		}
	}
	for _, n := range tmps {
		_ = s.fs.Remove(filepath.Join(s.dir, n))
	}

	// Open the active segment for appending (creating the first one on
	// a fresh store).
	if active == 0 {
		active = base
		if active == 0 {
			active = 1
		}
	}
	s.segSeq = active
	s.segs.Store(active)
	f, size, err := s.fs.OpenAppend(s.segPath(active))
	if err != nil {
		return fmt.Errorf("rms: opening wal segment: %w", err)
	}
	s.seg = f
	s.w = bufio.NewWriter(f)
	s.segOff = size
	if size == 0 {
		if _, err := s.w.Write(segMagic); err != nil {
			f.Close()
			return fmt.Errorf("rms: writing segment magic: %w", err)
		}
		if err := s.w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("rms: writing segment magic: %w", err)
		}
		s.segOff = int64(len(segMagic))
	}
	// Make the recovery's directory mutations — and, on a fresh store,
	// the first segment's dirent — durable before anything is acked: a
	// commit fsync covers file bytes, never the name that finds them.
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("rms: syncing wal dir: %w", err)
	}
	return nil
}

func first(seqs []uint64) uint64 {
	if len(seqs) == 0 {
		return 0
	}
	return seqs[0]
}

// replaySegment applies one segment's entries. valid is the byte
// length of the well-formed prefix; torn reports whether the segment
// ended at a tear (truncated/corrupt entry or bad magic) rather than a
// clean EOF.
func (s *WALStore) replaySegment(seq uint64) (valid int64, torn bool, err error) {
	data, err := s.fs.ReadFile(s.segPath(seq))
	if err != nil {
		return 0, false, fmt.Errorf("rms: reading wal segment: %w", err)
	}
	if len(data) == 0 {
		return 0, false, nil // freshly created, nothing flushed yet
	}
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], segMagic) {
		return 0, true, nil // torn at the header
	}
	valid = int64(len(segMagic))
	for {
		op, id, payload, n, ok := readLogEntry(data[valid:])
		if !ok {
			break
		}
		s.applyEntry(op, id, payload)
		valid += int64(n)
	}
	return valid, valid < int64(len(data)), nil
}

// applyEntry folds one entry — replayed from a segment, or just
// appended — into memory.
func (s *WALStore) applyEntry(op byte, id int, payload []byte) {
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

// loadSnapshot parses snap-<seq>.snap all-or-nothing: header CRC, the
// exact entry count, and a clean end. Any deviation rejects the file.
func (s *WALStore) loadSnapshot(seq uint64) error {
	data, err := s.fs.ReadFile(s.snapPath(seq))
	if err != nil {
		return err
	}
	if len(data) < snapHeaderSize || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return fmt.Errorf("rms: snapshot %d: bad header", seq)
	}
	hdr := data[:snapHeaderSize]
	nextID := binary.BigEndian.Uint64(hdr[len(snapMagic):])
	count := binary.BigEndian.Uint64(hdr[len(snapMagic)+8:])
	sum := binary.BigEndian.Uint32(hdr[len(snapMagic)+16:])
	if crc32.ChecksumIEEE(hdr[:len(snapMagic)+16]) != sum {
		return fmt.Errorf("rms: snapshot %d: header crc mismatch", seq)
	}
	// The header CRC covers only the header: a count the bytes after it
	// cannot hold is refused before the map is sized by it.
	if count > uint64(len(data)-snapHeaderSize)/entryHeaderSize {
		return fmt.Errorf("rms: snapshot %d: %d entries cannot fit in %d bytes", seq, count, len(data)-snapHeaderSize)
	}
	records := make(map[int][]byte, count)
	read := int64(snapHeaderSize)
	for i := uint64(0); i < count; i++ {
		op, id, payload, n, ok := readLogEntry(data[read:])
		if !ok || op != opAdd {
			return fmt.Errorf("rms: snapshot %d: entry %d invalid", seq, i)
		}
		records[id] = payload
		read += int64(n)
	}
	if read != int64(len(data)) {
		return fmt.Errorf("rms: snapshot %d: %d trailing bytes", seq, int64(len(data))-read)
	}
	s.records = records
	s.nextID = int(nextID)
	s.garbage = 0
	return nil
}

// ErrWedged marks the sticky failure state a write or fsync error
// leaves a WALStore in; errors.Is(err, ErrWedged) identifies it from
// any operation's return. A wedged store never heals in-process — the
// embedder should surface the condition (health 503) and fail over.
var ErrWedged = errors.New("rms: wal store wedged")

// wedgeLocked records a permanent failure and wakes every parked
// writer. Called with mu held.
func (s *WALStore) wedgeLocked(err error) error {
	if s.fail == nil {
		s.fail = fmt.Errorf("%w: %s: %v", ErrWedged, s.name, err)
	}
	s.commit.Broadcast()
	return s.fail
}

// appendLocked encodes and appends one entry (rotating first if it
// would overflow the segment) and returns its lsn. Called with mu held.
func (s *WALStore) appendLocked(op byte, id int, payload []byte) (uint64, error) {
	s.scratch = appendLogEntry(s.scratch[:0], op, id, payload)
	if s.segOff > int64(len(segMagic)) && s.segOff+int64(len(s.scratch)) > int64(s.opts.SegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
		// Rotation re-encodes nothing: scratch still holds the entry.
	}
	if _, err := s.w.Write(s.scratch); err != nil {
		return 0, s.wedgeLocked(err)
	}
	s.segOff += int64(len(s.scratch))
	s.logBytes.Add(uint64(len(s.scratch)))
	s.lsn++
	if s.sink != nil {
		s.tapBuf = append(s.tapBuf, tapOp{lsn: s.lsn, op: CommitOp{Op: op, ID: id, Data: clone(payload)}})
	}
	return s.lsn, nil
}

// rotateLocked seals the active segment (flush + fsync, advancing the
// commit watermark) and starts the next one. Called with mu held.
func (s *WALStore) rotateLocked() error {
	// An in-flight group commit holds the active segment's handle; let
	// it land before the handle is closed.
	for s.syncing {
		s.commit.Wait()
		if s.fail != nil {
			return s.fail
		}
	}
	if err := s.w.Flush(); err != nil {
		return s.wedgeLocked(err)
	}
	syncStart := time.Now()
	if err := s.seg.Sync(); err != nil {
		return s.wedgeLocked(err)
	}
	s.noteFsync(time.Since(syncStart))
	if s.synced < s.lsn {
		s.synced = s.lsn
	}
	s.trailSafe.Store(s.trailed.Load())
	s.commit.Broadcast()
	if err := s.seg.Close(); err != nil {
		return s.wedgeLocked(err)
	}
	s.segSeq++
	s.segs.Store(s.segSeq)
	f, err := s.fs.Create(s.segPath(s.segSeq))
	if err != nil {
		return s.wedgeLocked(err)
	}
	s.seg = f
	s.w.Reset(f)
	if _, err := s.w.Write(segMagic); err != nil {
		return s.wedgeLocked(err)
	}
	s.segOff = int64(len(segMagic))
	// Make the new segment's dirent durable before any entry in it can
	// be acked: a commit fsync covers file bytes, not the name.
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.wedgeLocked(err)
	}
	// Rotation is the compaction checkpoint: snapshot once enough of
	// the log is superseded. Auto-snapshot failure must not fail the
	// append that triggered it — the log itself is still healthy.
	if s.garbage >= s.opts.CompactGarbage {
		if err := s.snapshotLocked(); err != nil && s.fail == nil {
			s.snapErr = err
		}
	}
	return nil
}

// snapshotLocked writes the live set to a snapshot and prunes the
// segments it covers. Called with mu held.
func (s *WALStore) snapshotLocked() error {
	// Rotate so the snapshot boundary is a segment boundary: the
	// snapshot then covers exactly the segments below segSeq. Guard
	// against recursion — rotateLocked may call back on garbage.
	if s.segOff > int64(len(segMagic)) {
		garbage := s.garbage
		s.garbage = 0
		err := s.rotateLocked()
		s.garbage = garbage
		if err != nil {
			return err
		}
	}
	base := s.segSeq
	tmpPath := s.snapPath(base) + tmpSuffix
	f, err := s.fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("rms: creating snapshot: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		_ = s.fs.Remove(tmpPath)
		return err
	}
	ids := make([]int, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	hdr := make([]byte, 0, snapHeaderSize)
	hdr = append(hdr, snapMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(s.nextID))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(ids)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	bw := bufio.NewWriter(f)
	if _, err := bw.Write(hdr); err != nil {
		return fail(fmt.Errorf("rms: writing snapshot: %w", err))
	}
	// Not s.scratch: when an append's rotation triggered this snapshot,
	// scratch still holds that entry, to be written after we return.
	var buf []byte
	for _, id := range ids {
		buf = appendLogEntry(buf[:0], opAdd, id, s.records[id])
		if _, err := bw.Write(buf); err != nil {
			return fail(fmt.Errorf("rms: writing snapshot: %w", err))
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("rms: writing snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("rms: syncing snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmpPath)
		return fmt.Errorf("rms: closing snapshot: %w", err)
	}
	if err := s.fs.Rename(tmpPath, s.snapPath(base)); err != nil {
		_ = s.fs.Remove(tmpPath)
		return fmt.Errorf("rms: publishing snapshot: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("rms: syncing wal dir: %w", err)
	}
	// Only now are the covered segments dead weight. Best-effort: a
	// crash mid-prune leaves files recover() deletes on the next open.
	for seq := uint64(1); seq < base; seq++ {
		_ = s.fs.Remove(s.segPath(seq))
	}
	names, err := s.fs.ReadDir(s.dir)
	if err == nil {
		for _, n := range names {
			if seq, ok := parseSeq(n, snapPrefix, snapSuffix); ok && seq < base {
				_ = s.fs.Remove(filepath.Join(s.dir, n))
			}
		}
	}
	s.garbage = 0
	s.snapErr = nil
	s.snaps.Add(1)
	return nil
}

// commitWait blocks until the caller's entries up to lsn are durable
// under the configured policy, grouping with concurrent committers.
func (s *WALStore) commitWait(lsn uint64) error {
	if s.opts.Sync == SyncNever {
		return nil
	}
	// SyncGroup: first unsatisfied arrival leads; everyone else parks
	// on the ticket and is acked by the leader's broadcast.
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.fail != nil {
			return s.fail
		}
		if s.synced >= lsn {
			return nil
		}
		if s.closed {
			return ErrClosed
		}
		if !s.syncing {
			s.syncing = true
			// Commit window: yield the processor before capturing the
			// batch, so committers that are already runnable (mid
			// append, a few microseconds behind us) land in this fsync
			// instead of each paying for their own. Re-yield while the
			// log keeps growing (bounded, so a steady write stream
			// cannot starve the leader). On an idle store the window
			// costs one scheduler round-trip (~100ns); under load —
			// especially with few cores, where the leader would
			// otherwise enter the syscall before anyone else has had
			// CPU time — it is what turns N commits into one fsync.
			// Appends do not wait on the syncing ticket, only rotation
			// does, so the window genuinely admits them.
			for spins := 0; spins < 4; spins++ {
				before := s.lsn
				s.mu.Unlock()
				runtime.Gosched()
				s.mu.Lock()
				if s.lsn == before {
					break
				}
			}
			if s.fail != nil || s.closed {
				// State moved while we yielded (a concurrent append hit
				// the wedge, or Close raced in); release the ticket and
				// re-evaluate from the top.
				s.syncing = false
				s.commit.Broadcast()
				continue
			}
			target := s.lsn // everything appended so far rides this fsync
			trailed := s.trailed.Load()
			err := s.w.Flush()
			seg := s.seg
			s.mu.Unlock()
			var serr error
			syncStart := time.Now()
			if err == nil {
				serr = seg.Sync()
			}
			stall := time.Since(syncStart)
			s.mu.Lock()
			s.syncing = false
			switch {
			case err != nil:
				s.wedgeLocked(err)
			case serr != nil:
				s.wedgeLocked(serr)
			default:
				s.noteFsync(stall)
				if target > s.synced {
					// The whole batch rides this one fsync — its size is
					// what the group-commit gauges report.
					s.groupedOps.Add(target - s.synced)
					s.synced = target
					s.trailSafe.Store(trailed)
				}
			}
			s.commit.Broadcast()
			continue
		}
		s.commit.Wait()
	}
}

// Name implements Store.
func (s *WALStore) Name() string { return s.name }

// appendOps is the one write path. The whole batch is validated, then
// every op is appended as its own ordinary frame, back to back under
// one hold of mu — so a crash leaves a prefix of the batch in order,
// never a gap, and recovery needs no batch frame. ids receives each
// op's record id; the last op's lsn is returned for the caller to wait
// on, or, for a trailing batch, left to the next commit or the timer.
func (s *WALStore) appendOps(ops []Op, ids []int, trailing bool) (uint64, error) {
	var frames int64
	for _, op := range ops {
		frames += entryHeaderSize + int64(len(op.payload()))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rotation must let an in-flight fsync land before it closes the
	// segment handle, and that wait releases mu. A batch that may cross
	// the segment boundary waits here instead, before it is validated:
	// from this point mu is held until the last frame is appended.
	for s.syncing && s.segOff+frames > int64(s.opts.SegmentBytes) {
		s.commit.Wait()
	}
	if s.closed {
		return 0, ErrClosed
	}
	if s.fail != nil {
		return 0, s.fail
	}
	if err := checkOps(s.name, ops, ids, s.records, s.nextID); err != nil {
		return 0, err
	}
	var lsn uint64
	for i, op := range ops {
		var err error
		if lsn, err = s.appendLocked(op.Op, ids[i], op.payload()); err != nil {
			return 0, err
		}
		s.applyEntry(op.Op, ids[i], clone(op.payload()))
	}
	if trailing {
		if s.trailFirst <= s.synced {
			s.trailFirst, s.trailSince = lsn, time.Now()
		}
		s.trailed.Add(uint64(len(ops)))
		if s.trailTimer == nil {
			s.trailTimer = time.AfterFunc(s.opts.trailingBound, s.trailingExpired)
		}
	}
	return lsn, nil
}

// appendWait appends ops and waits for one commit covering the last.
func (s *WALStore) appendWait(ops []Op, ids []int) error {
	if len(ops) == 0 {
		return nil
	}
	lsn, err := s.appendOps(ops, ids, false)
	if err != nil {
		return err
	}
	return s.commitSink(lsn)
}

// commitSink waits until lsn is durable and, with a tap attached, has
// been handed to the sink.
func (s *WALStore) commitSink(lsn uint64) error {
	if err := s.commitWait(lsn); err != nil {
		return err
	}
	if s.tapped.Load() {
		s.sinkWait(lsn)
	}
	return nil
}

// trailingExpired is the timer's callback. A tail that waited commits
// have covered needs nothing, and the next trailing append arms the
// timer again; one younger than the bound — under traffic the tail is
// whatever was appended since the last commit — gets the rest of its
// time; one as old as the bound is synced by the store itself.
func (s *WALStore) trailingExpired() {
	s.mu.Lock()
	s.trailTimer = nil
	if s.closed || s.fail != nil || s.trailFirst <= s.synced {
		s.mu.Unlock()
		return
	}
	if rest := s.opts.trailingBound - time.Since(s.trailSince); rest > 0 {
		s.trailTimer = time.AfterFunc(rest, s.trailingExpired)
		s.mu.Unlock()
		return
	}
	lsn := s.lsn
	s.mu.Unlock()
	s.trailSyncs.Add(1)
	_ = s.commitSink(lsn) // a failure wedges the store: Err and every later write report it
}

// ApplyTrailing implements Store: the ops take their place in the log
// and in memory now and are durable with the next commit, within
// trailingSyncBound at the latest. Under SyncNever nothing waits anyway.
func (s *WALStore) ApplyTrailing(ops []Op) ([]int, error) {
	if s.opts.Sync == SyncNever {
		return s.Apply(ops)
	}
	ids := make([]int, len(ops))
	if len(ops) == 0 {
		return ids, nil
	}
	if _, err := s.appendOps(ops, ids, true); err != nil {
		return nil, err
	}
	return ids, nil
}

// Apply implements Store: one fsync for the whole batch under
// SyncGroup, none under SyncNever.
func (s *WALStore) Apply(ops []Op) ([]int, error) {
	ids := make([]int, len(ops))
	if err := s.appendWait(ops, ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// Add implements Store.
func (s *WALStore) Add(data []byte) (int, error) {
	var ids [1]int
	if err := s.appendWait([]Op{{Op: OpAdd, Data: data}}, ids[:]); err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Set implements Store.
func (s *WALStore) Set(id int, data []byte) error {
	var ids [1]int
	return s.appendWait([]Op{{Op: OpSet, ID: id, Data: data}}, ids[:])
}

// Delete implements Store.
func (s *WALStore) Delete(id int) error {
	var ids [1]int
	return s.appendWait([]Op{{Op: OpDelete, ID: id}}, ids[:])
}

// Get implements Store.
func (s *WALStore) Get(id int) ([]byte, error) {
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

// NumRecords implements Store.
func (s *WALStore) NumRecords() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.records), nil
}

// NextID implements Store.
func (s *WALStore) NextID() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.nextID, nil
}

// IDs implements Store.
func (s *WALStore) IDs() ([]int, error) {
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
func (s *WALStore) Size() (int, error) {
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

// Garbage returns the superseded log bytes accumulated since the last
// snapshot; masd's idle-host backstop polls it and calls Compact.
func (s *WALStore) Garbage() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.garbage
}

// Compact forces a snapshot + segment prune now. It also surfaces the
// last auto-snapshot failure.
func (s *WALStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.fail != nil {
		return s.fail
	}
	if err := s.snapErr; err != nil {
		s.snapErr = nil
		return err
	}
	return s.snapshotLocked()
}

// Fsyncs returns the number of fsyncs the store has issued — the
// quantity group commit exists to minimise.
func (s *WALStore) Fsyncs() uint64 { return s.fsyncs.Load() }

// WALStats is a snapshot of the WAL's observability counters
// (DESIGN.md §11): how often and how slowly fsync runs, how well
// group commit batches, and how bounded the on-disk log is.
type WALStats struct {
	// Fsyncs counts completed write-path fsyncs.
	Fsyncs uint64
	// GroupedOps counts every entry a group-commit fsync acked — the
	// op that led the fsync included, not only the ones that rode along;
	// divided by Fsyncs it is the mean batch size (1.0 = no batching).
	GroupedOps uint64
	// Segments is the active segment's sequence number (segments
	// rotated + 1).
	Segments uint64
	// Snapshots counts compaction snapshots written since open.
	Snapshots uint64
	// LogBytes counts the bytes of log frames appended since open,
	// frame headers included: what the store's callers cost the disk
	// before compaction.
	LogBytes uint64
	// LastFsync is how long the most recent fsync took; MaxFsync the
	// slowest since open. A growing LastFsync is the earliest signal
	// of a drowning disk — the gateway's shed watermark reads it.
	LastFsync time.Duration
	MaxFsync  time.Duration
	// TrailingOps counts entries appended by ApplyTrailing; Unsynced is
	// how many of them no fsync has covered yet — what a crash right now
	// would lose, at most trailingSyncBound old. TrailingSyncs counts the
	// times that bound expired on an un-synced tail and the store synced
	// it itself: near zero while trailing entries ride waited commits.
	TrailingOps      uint64
	TrailingUnsynced uint64
	TrailingSyncs    uint64
}

// Stats returns a lock-free snapshot of the WAL's counters.
func (s *WALStore) Stats() WALStats {
	safe := s.trailSafe.Load() // before trailed, which only grows: the difference cannot go negative
	trailed := s.trailed.Load()
	return WALStats{
		Fsyncs:           s.fsyncs.Load(),
		GroupedOps:       s.groupedOps.Load(),
		Segments:         s.segs.Load(),
		Snapshots:        s.snaps.Load(),
		LogBytes:         s.logBytes.Load(),
		LastFsync:        time.Duration(s.lastFsync.Load()),
		MaxFsync:         time.Duration(s.maxFsync.Load()),
		TrailingOps:      trailed,
		TrailingUnsynced: trailed - safe,
		TrailingSyncs:    s.trailSyncs.Load(),
	}
}

// RegisterMetrics exposes the WAL's durability counters on a metrics
// registry as lazily-evaluated gauges under prefix (e.g.
// "pdagent_wal"); what names the store in help text (e.g. "agent
// journal"). Shared by the gateway's and masd's scrape surfaces.
func (s *WALStore) RegisterMetrics(m *metrics.Registry, prefix, what string) {
	m.GaugeFunc(prefix+"_fsyncs",
		"Fsync calls issued by the "+what+" WAL.",
		func() float64 { return float64(s.Stats().Fsyncs) })
	m.GaugeFunc(prefix+"_grouped_ops",
		"Ops acked by the "+what+" WAL's group-commit fsyncs, each fsync's leader included (over _fsyncs: mean batch size).",
		func() float64 { return float64(s.Stats().GroupedOps) })
	m.GaugeFunc(prefix+"_segments",
		"Active segment sequence number of the "+what+" WAL.",
		func() float64 { return float64(s.Stats().Segments) })
	m.GaugeFunc(prefix+"_snapshots",
		"Compaction snapshots written by the "+what+" WAL.",
		func() float64 { return float64(s.Stats().Snapshots) })
	m.GaugeFunc(prefix+"_log_bytes",
		"Log frame bytes appended by the "+what+" WAL, frame headers included.",
		func() float64 { return float64(s.Stats().LogBytes) })
	m.GaugeFunc(prefix+"_last_fsync_us",
		"Duration of the "+what+" WAL's most recent fsync, microseconds.",
		func() float64 { return float64(s.Stats().LastFsync.Microseconds()) })
	m.GaugeFunc(prefix+"_max_fsync_us",
		"Longest fsync the "+what+" WAL has seen, microseconds.",
		func() float64 { return float64(s.Stats().MaxFsync.Microseconds()) })
	m.GaugeFunc(prefix+"_trailing_ops",
		"Ops the "+what+" WAL appended without a durability wait of their own (retirements).",
		func() float64 { return float64(s.Stats().TrailingOps) })
	m.GaugeFunc(prefix+"_trailing_unsynced",
		"Trailing ops of the "+what+" WAL no fsync has covered yet: what a crash now would lose and the peers re-ship.",
		func() float64 { return float64(s.Stats().TrailingUnsynced) })
	m.GaugeFunc(prefix+"_trailing_syncs",
		"Fsyncs the "+what+" WAL started itself because trailing ops found no commit to ride within the bound (an idle host).",
		func() float64 { return float64(s.Stats().TrailingSyncs) })
}

// WALOf unwraps layered stores (e.g. a tracing decorator) down to the
// *WALStore underneath, or nil if the chain does not end in one.
func WALOf(st Store) *WALStore {
	for st != nil {
		if w, ok := st.(*WALStore); ok {
			return w
		}
		u, ok := st.(interface{ Unwrap() Store })
		if !ok {
			return nil
		}
		st = u.Unwrap()
	}
	return nil
}

// Close implements Store: flush, a final fsync (all policies — a clean
// shutdown is on disk), and release.
func (s *WALStore) Close() error {
	// A trailing tail has no caller to commit it and hand it to the tap:
	// do that first, outside mu as every sink call is. A failure here is
	// the wedge the rest of Close handles.
	s.mu.Lock()
	lsn := s.lsn
	s.mu.Unlock()
	_ = s.commitSink(lsn)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.trailTimer != nil {
		s.trailTimer.Stop()
		s.trailTimer = nil
	}
	for s.syncing {
		s.commit.Wait()
	}
	if s.fail != nil {
		s.closed = true
		s.seg.Close()
		s.commit.Broadcast()
		return nil
	}
	err := s.w.Flush()
	if err == nil {
		if err = s.seg.Sync(); err == nil {
			s.fsyncs.Add(1)
			s.synced = s.lsn
			s.trailSafe.Store(s.trailed.Load())
		}
	}
	cerr := s.seg.Close()
	s.closed = true
	s.commit.Broadcast()
	if err != nil {
		return fmt.Errorf("rms: closing wal %s: %w", s.name, err)
	}
	if cerr != nil {
		return fmt.Errorf("rms: closing wal %s: %w", s.name, cerr)
	}
	return nil
}
