// Package repl streams rms store commit batches from each cluster
// member to its warm standby (DESIGN.md §10).
//
// Each member runs one Peer playing both roles at once:
//
//   - sender: every replicated store (the agent journal, the mailbox
//     store) gets a commit tap (rms.Tapped); committed mutations are
//     framed and shipped to the member's ring-successor standby over
//     the authenticated §6 cluster transport. In semi-sync mode the
//     batch is pushed before the committing operation returns; in
//     async mode batches buffer and ship on the next Flush (the
//     heartbeat tick), bounding loss to the buffered window.
//   - receiver: holds a Replica per (primary, role) — the standby's
//     in-memory image of the primary's store, rebuilt from an initial
//     snapshot plus the op stream. On SWIM eviction of the primary,
//     Take hands the replicas to the promotion path, which
//     materialises them via rms.NewMemStoreFrom and resumes the dead
//     member's agents and mailboxes.
//
// Anti-entropy: every stream batch carries the sequence number of its
// first op. A receiver that never saw a snapshot, lost its state, or
// detects a gap answers Conflict; the sender then re-snapshots from
// the live store and resumes. Ops are idempotent per record id
// (add/set overwrite, delete tolerates absence), so snapshot +
// at-least-once replay converges — the sender never needs to know
// exactly which ops a snapshot already covered.
//
// Fencing: senders stamp the cluster identity (token, origin, fencing
// epoch) on every request, and receivers run the same Authorize check
// the heartbeat path uses. A zombie ex-primary that keeps streaming
// after its standby promoted is refused at the door (its epoch is
// below the raised fence), so split-brain cannot double-deliver.
package repl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// Mode selects the replication ack discipline.
type Mode string

// Replication modes.
const (
	// ModeAsync buffers commits and ships them on Flush (the heartbeat
	// tick). On primary loss, at most the buffered window (PendingOps)
	// is lost.
	ModeAsync Mode = "async"
	// ModeSemiSync pushes each commit batch to the standby before the
	// committing operation returns: an acked commit is on two members.
	// If the standby is unreachable the peer degrades to buffering
	// (availability over strict durability) and logs the transition
	// once; PendingOps exposes the at-risk window.
	ModeSemiSync Mode = "semi-sync"
)

// ParseMode validates a -repl-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeAsync, ModeSemiSync:
		return Mode(s), nil
	}
	return "", fmt.Errorf("repl: unknown mode %q (want %q or %q)", s, ModeAsync, ModeSemiSync)
}

// Canonical stream roles. A role names one replicated store; the
// promotion path looks replicas up by these keys.
const (
	// RoleJournal is the embedded MAS's agent journal.
	RoleJournal = "journal"
	// RoleMailbox is the device-mailbox store.
	RoleMailbox = "mailbox"
)

// Replication endpoints, mounted under the gateway's /cluster/ tree.
const (
	// PathStream receives an op batch for one (primary, role) stream.
	PathStream = "/cluster/repl/stream"
	// PathSnapshot receives a full store image, resetting the stream.
	PathSnapshot = "/cluster/repl/snapshot"
	// PathFetch serves a held replica back — a rejoining member that
	// lost its disk can recover its own state from its standby.
	PathFetch = "/cluster/repl/fetch"
)

// Stream headers.
const (
	hdrPrimary = "x-repl-primary" // member whose store this is
	hdrRole    = "x-repl-role"    // which store: "journal", "mailbox", ...
	hdrSeq     = "x-repl-seq"     // sequence of the first op in the batch
	hdrNextID  = "x-repl-nextid"  // store id watermark (snapshot, fetch)
)

// streamTimeout bounds one replication round trip so a hung standby
// cannot stall a semi-sync committer forever (inert on the simulated
// inline fabric).
const streamTimeout = 5 * time.Second

// Config configures a Peer. Transport, Stamp, Authorize and StandbyFn
// are required; the cluster Node provides the first three
// (Node.StampIdentity, Node.Authorized) so replication rides the same
// secret and fencing the heartbeats use.
type Config struct {
	// Self is this member's advertised address.
	Self string
	// Transport carries streams to the standby.
	Transport transport.RoundTripper
	// Stamp adds the cluster identity (token, origin, epoch) to an
	// outgoing request.
	Stamp func(req *transport.Request)
	// Authorize vets an incoming request: shared secret plus fencing
	// epoch (refuses zombie primaries).
	Authorize func(req *transport.Request) bool
	// OriginOf extracts the authenticated origin of a request
	// (cluster.Origin); a stream whose claimed primary differs from its
	// origin is refused, so one member cannot overwrite another's
	// replica.
	OriginOf func(req *transport.Request) string
	// StandbyFn names the member to stream to ("" when no standby is
	// alive; streams buffer until one is).
	StandbyFn func() string
	// Mode is the ack discipline (default ModeAsync).
	Mode Mode
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// stream is the sender-side state of one replicated store.
type stream struct {
	role  string
	store rms.Store // live store, read for snapshot fallback

	mu       sync.Mutex
	seq      uint64 // sequence the next observed op will get
	firstSeq uint64 // sequence of pending[0]
	pending  []rms.CommitOp
	target   string // standby the stream is synced to
	synced   bool   // target holds a snapshot consistent with firstSeq
	degraded bool   // logged-once latch for unreachable standby
}

// Replica is a standby's image of one primary store, rebuilt from a
// snapshot plus the op stream.
type Replica struct {
	Primary string
	Role    string
	NextID  int            // primary's id watermark (next Add id)
	Seq     uint64         // next op sequence expected
	Records map[int][]byte // live records
}

// NewStore materialises the replica as an in-memory rms.Store — the
// promotion path feeds this to the journal/mailbox replay machinery.
func (r *Replica) NewStore(name string) *rms.MemStore {
	return rms.NewMemStoreFrom(name, r.NextID, r.Records)
}

func (r *Replica) apply(op rms.CommitOp) {
	switch op.Op {
	case rms.OpAdd, rms.OpSet:
		r.Records[op.ID] = append([]byte(nil), op.Data...)
		if op.ID >= r.NextID {
			r.NextID = op.ID + 1
		}
	case rms.OpDelete:
		delete(r.Records, op.ID)
	}
}

// Peer is one member's replication runtime: sender streams for the
// local stores, received replicas for the members it stands by for.
type Peer struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*stream // by role

	rmu      sync.Mutex
	replicas map[string]map[string]*Replica // primary → role → replica
}

// NewPeer builds a replication peer.
func NewPeer(cfg Config) *Peer {
	if cfg.Mode == "" {
		cfg.Mode = ModeAsync
	}
	return &Peer{
		cfg:      cfg,
		streams:  map[string]*stream{},
		replicas: map[string]map[string]*Replica{},
	}
}

func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Mount registers the receiver endpoints on a mux.
func (p *Peer) Mount(m *transport.Mux) {
	m.HandleFunc(PathStream, p.HandleStream)
	m.HandleFunc(PathSnapshot, p.HandleSnapshot)
	m.HandleFunc(PathFetch, p.HandleFetch)
}

// Replicate attaches a commit tap to store and starts streaming it to
// the standby under role ("journal", "mailbox"). The tap only observes
// future commits; the pre-existing live set rides the initial snapshot
// the first flush pushes.
func (p *Peer) Replicate(role string, store rms.Tapped) {
	st := &stream{role: role, store: store, seq: 1, firstSeq: 1}
	p.mu.Lock()
	p.streams[role] = st
	p.mu.Unlock()
	store.SetCommitSink(func(ops []rms.CommitOp) { p.observe(st, ops) })
}

// observe is the commit-tap sink: buffer the batch and, in semi-sync
// mode, push it before returning (which is what makes the committing
// store operation wait for the standby).
func (p *Peer) observe(st *stream, ops []rms.CommitOp) {
	st.mu.Lock()
	st.pending = append(st.pending, ops...)
	st.seq += uint64(len(ops))
	if p.cfg.Mode == ModeSemiSync {
		ctx, cancel := context.WithTimeout(context.Background(), streamTimeout)
		p.flushLocked(ctx, st)
		cancel()
	}
	st.mu.Unlock()
}

// Flush pushes every stream's buffered commits to the standby — the
// async-mode driver, called from the cluster tick. Safe (and cheap)
// to call in semi-sync mode too: it retries anything a degraded
// stream buffered.
func (p *Peer) Flush(ctx context.Context) {
	p.mu.Lock()
	streams := make([]*stream, 0, len(p.streams))
	for _, st := range p.streams {
		streams = append(streams, st)
	}
	p.mu.Unlock()
	sort.Slice(streams, func(i, j int) bool { return streams[i].role < streams[j].role })
	for _, st := range streams {
		st.mu.Lock()
		p.flushLocked(ctx, st)
		st.mu.Unlock()
	}
}

// PendingOps counts buffered, not-yet-replicated ops across all
// streams — the at-most loss bound if this member dies right now.
func (p *Peer) PendingOps() int {
	p.mu.Lock()
	streams := make([]*stream, 0, len(p.streams))
	for _, st := range p.streams {
		streams = append(streams, st)
	}
	p.mu.Unlock()
	n := 0
	for _, st := range streams {
		st.mu.Lock()
		n += len(st.pending)
		st.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of the sender side's replication health, for
// the `/metrics` gauges (DESIGN.md §11).
type Stats struct {
	// Mode is the configured ack discipline.
	Mode Mode
	// Streams is the number of replicated stores.
	Streams int
	// Degraded counts streams latched degraded (standby unreachable,
	// commits buffering).
	Degraded int
	// PendingOps is the buffered-but-unreplicated op count across
	// streams — the replication lag, and the at-most loss bound if
	// this member dies right now.
	PendingOps int
}

// Stats returns a snapshot of the sender streams.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	streams := make([]*stream, 0, len(p.streams))
	for _, st := range p.streams {
		streams = append(streams, st)
	}
	p.mu.Unlock()
	s := Stats{Mode: p.cfg.Mode, Streams: len(streams)}
	for _, st := range streams {
		st.mu.Lock()
		s.PendingOps += len(st.pending)
		if st.degraded {
			s.Degraded++
		}
		st.mu.Unlock()
	}
	return s
}

// flushLocked pushes st.pending to the current standby; st.mu held.
func (p *Peer) flushLocked(ctx context.Context, st *stream) {
	target := ""
	if p.cfg.StandbyFn != nil {
		target = p.cfg.StandbyFn()
	}
	if target == "" || target == p.cfg.Self {
		return // no standby alive; keep buffering
	}
	if target != st.target {
		st.target = target
		st.synced = false // new standby starts from a snapshot
	}
	if !st.synced && !p.snapshotLocked(ctx, st) {
		return
	}
	if len(st.pending) == 0 {
		return
	}
	req := &transport.Request{Path: PathStream, Body: encodeOps(st.pending)}
	p.cfg.Stamp(req)
	req.SetHeader(hdrPrimary, p.cfg.Self)
	req.SetHeader(hdrRole, st.role)
	req.SetHeader(hdrSeq, strconv.FormatUint(st.firstSeq, 10))
	resp, err := p.cfg.Transport.RoundTrip(ctx, target, req)
	switch {
	case err != nil:
		p.degradedLocked(st, "%v", err)
	case resp.IsOK():
		st.firstSeq += uint64(len(st.pending))
		st.pending = nil
		if st.degraded {
			st.degraded = false
			p.logf("repl %s: %s stream to %s recovered", p.cfg.Self, st.role, st.target)
		}
	case resp.Status == transport.StatusConflict:
		st.synced = false // receiver lost state or gapped; re-snapshot next flush
	default:
		p.degradedLocked(st, "status %d: %s", resp.Status, resp.Body)
	}
}

// snapshotLocked pushes a full image of the live store, resetting the
// stream at the current sequence. The snapshot reflects every op
// already buffered (they committed to the live store before the tap
// emitted them), so pending is dropped and the stream resumes at seq;
// any op that commits during the read replays later, idempotently.
func (p *Peer) snapshotLocked(ctx context.Context, st *stream) bool {
	recs, nextID, err := dumpStore(st.store)
	if err != nil {
		p.degradedLocked(st, "snapshot read: %v", err)
		return false
	}
	st.pending = nil
	st.firstSeq = st.seq
	req := &transport.Request{Path: PathSnapshot, Body: encodeRecords(recs)}
	p.cfg.Stamp(req)
	req.SetHeader(hdrPrimary, p.cfg.Self)
	req.SetHeader(hdrRole, st.role)
	req.SetHeader(hdrSeq, strconv.FormatUint(st.seq, 10))
	req.SetHeader(hdrNextID, strconv.Itoa(nextID))
	resp, err := p.cfg.Transport.RoundTrip(ctx, st.target, req)
	if err != nil {
		p.degradedLocked(st, "snapshot: %v", err)
		return false
	}
	if !resp.IsOK() {
		p.degradedLocked(st, "snapshot status %d: %s", resp.Status, resp.Body)
		return false
	}
	st.synced = true
	if st.degraded {
		st.degraded = false
		p.logf("repl %s: %s stream to %s recovered (snapshot, %d records)", p.cfg.Self, st.role, st.target, len(recs))
	}
	return true
}

// degradedLocked logs a stream's first failure since it last worked;
// repeats stay quiet (the retry loop would flood the log).
func (p *Peer) degradedLocked(st *stream, format string, args ...any) {
	if st.degraded {
		return
	}
	st.degraded = true
	p.logf("repl %s: %s stream to %s degraded (buffering): %s",
		p.cfg.Self, st.role, st.target, fmt.Sprintf(format, args...))
}

// dumpStore reads a consistent-enough image of the live store:
// records deleted between IDs and Get are skipped (their delete op
// will stream later and is a no-op on the replica).
func dumpStore(s rms.Store) (map[int][]byte, int, error) {
	ids, err := s.IDs()
	if err != nil {
		return nil, 0, err
	}
	nextID, err := s.NextID()
	if err != nil {
		return nil, 0, err
	}
	recs := make(map[int][]byte, len(ids))
	for _, id := range ids {
		data, err := s.Get(id)
		if errors.Is(err, rms.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		recs[id] = data
	}
	return recs, nextID, nil
}

// --- receiver ---

// HandleSnapshot is the PathSnapshot endpoint: (re)build the replica
// for (primary, role) from a full image.
func (p *Peer) HandleSnapshot(_ context.Context, req *transport.Request) *transport.Response {
	primary, role, resp := p.vet(req)
	if resp != nil {
		return resp
	}
	seq, err := strconv.ParseUint(req.GetHeader(hdrSeq), 10, 64)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "repl: bad seq")
	}
	nextID, err := strconv.Atoi(req.GetHeader(hdrNextID))
	if err != nil || nextID < 1 {
		return transport.Errorf(transport.StatusBadRequest, "repl: bad nextid")
	}
	ops, err := decodeOps(req.Body)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "repl: %v", err)
	}
	r := &Replica{Primary: primary, Role: role, NextID: nextID, Seq: seq, Records: make(map[int][]byte, len(ops))}
	for _, op := range ops {
		r.apply(op)
	}
	if r.NextID < nextID {
		r.NextID = nextID
	}
	p.rmu.Lock()
	if p.replicas[primary] == nil {
		p.replicas[primary] = map[string]*Replica{}
	}
	p.replicas[primary][role] = r
	p.rmu.Unlock()
	return transport.OK(nil)
}

// HandleStream is the PathStream endpoint: append an op batch to the
// replica. Answers Conflict when it has no snapshot or detects a gap,
// telling the sender to re-snapshot (anti-entropy).
func (p *Peer) HandleStream(_ context.Context, req *transport.Request) *transport.Response {
	primary, role, resp := p.vet(req)
	if resp != nil {
		return resp
	}
	seq, err := strconv.ParseUint(req.GetHeader(hdrSeq), 10, 64)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "repl: bad seq")
	}
	ops, err := decodeOps(req.Body)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "repl: %v", err)
	}
	p.rmu.Lock()
	defer p.rmu.Unlock()
	r := p.replicas[primary][role]
	if r == nil || seq > r.Seq {
		return transport.Errorf(transport.StatusConflict, "repl: need snapshot for %s/%s", primary, role)
	}
	// seq <= r.Seq: skip ops already applied (a retried batch), apply
	// the rest. Ops are idempotent, so the overlap math only saves work.
	skip := r.Seq - seq
	for i, op := range ops {
		if uint64(i) < skip {
			continue
		}
		r.apply(op)
	}
	if end := seq + uint64(len(ops)); end > r.Seq {
		r.Seq = end
	}
	return transport.OK(nil)
}

// HandleFetch is the PathFetch endpoint: serve a held replica back to
// an authorized member — the disk-loss recovery path for a rejoining
// primary.
func (p *Peer) HandleFetch(_ context.Context, req *transport.Request) *transport.Response {
	if p.cfg.Authorize == nil || !p.cfg.Authorize(req) {
		return transport.Errorf(transport.StatusForbidden, "repl: unauthorized")
	}
	primary := req.GetHeader(hdrPrimary)
	role := req.GetHeader(hdrRole)
	p.rmu.Lock()
	r := p.replicas[primary][role]
	var recs map[int][]byte
	var nextID int
	var seq uint64
	if r != nil {
		recs = make(map[int][]byte, len(r.Records))
		for id, data := range r.Records {
			recs[id] = data
		}
		nextID, seq = r.NextID, r.Seq
	}
	p.rmu.Unlock()
	if recs == nil {
		return transport.Errorf(transport.StatusNotFound, "repl: no replica for %s/%s", primary, role)
	}
	resp := transport.OK(encodeRecords(recs))
	resp.SetHeader(hdrNextID, strconv.Itoa(nextID))
	resp.SetHeader(hdrSeq, strconv.FormatUint(seq, 10))
	return resp
}

// Fetch pulls a replica of (primary, role) from addr — the client side
// of PathFetch.
func (p *Peer) Fetch(ctx context.Context, addr, primary, role string) (*Replica, error) {
	req := &transport.Request{Path: PathFetch}
	p.cfg.Stamp(req)
	req.SetHeader(hdrPrimary, primary)
	req.SetHeader(hdrRole, role)
	resp, err := p.cfg.Transport.RoundTrip(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	if !resp.IsOK() {
		return nil, fmt.Errorf("repl: fetch %s/%s from %s: status %d: %s", primary, role, addr, resp.Status, resp.Body)
	}
	ops, err := decodeOps(resp.Body)
	if err != nil {
		return nil, err
	}
	nextID, _ := strconv.Atoi(resp.GetHeader(hdrNextID))
	seq, _ := strconv.ParseUint(resp.GetHeader(hdrSeq), 10, 64)
	r := &Replica{Primary: primary, Role: role, NextID: nextID, Seq: seq, Records: make(map[int][]byte, len(ops))}
	for _, op := range ops {
		r.apply(op)
	}
	if r.NextID < nextID {
		r.NextID = nextID
	}
	return r, nil
}

// vet runs the shared receiver checks: authorization (secret +
// fencing) and primary/origin agreement.
func (p *Peer) vet(req *transport.Request) (primary, role string, errResp *transport.Response) {
	if p.cfg.Authorize == nil || !p.cfg.Authorize(req) {
		return "", "", transport.Errorf(transport.StatusForbidden, "repl: unauthorized")
	}
	primary = req.GetHeader(hdrPrimary)
	role = req.GetHeader(hdrRole)
	if primary == "" || role == "" {
		return "", "", transport.Errorf(transport.StatusBadRequest, "repl: missing primary or role")
	}
	if p.cfg.OriginOf != nil {
		if origin := p.cfg.OriginOf(req); origin != "" && origin != primary {
			return "", "", transport.Errorf(transport.StatusForbidden, "repl: origin %s may not write %s's replica", origin, primary)
		}
	}
	return primary, role, nil
}

// Has reports whether this peer holds any replica for primary — the
// promotion guard: only the member actually standing by promotes.
func (p *Peer) Has(primary string) bool {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	return len(p.replicas[primary]) > 0
}

// Replica returns the held replica for (primary, role), nil if none
// (inspection, tests).
func (p *Peer) Replica(primary, role string) *Replica {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	return p.replicas[primary][role]
}

// Take removes and returns every replica held for primary, keyed by
// role — the promotion hand-off. Subsequent stream writes from that
// primary start over with a Conflict (and are fenced anyway).
func (p *Peer) Take(primary string) map[string]*Replica {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	rs := p.replicas[primary]
	delete(p.replicas, primary)
	return rs
}

// --- wire framing: 1B op, 4B id, 4B len, payload ---

func appendFrame(b []byte, op byte, id int, data []byte) []byte {
	b = append(b, op)
	b = binary.BigEndian.AppendUint32(b, uint32(id))
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func encodeOps(ops []rms.CommitOp) []byte {
	n := 0
	for _, op := range ops {
		n += 9 + len(op.Data)
	}
	b := make([]byte, 0, n)
	for _, op := range ops {
		b = appendFrame(b, op.Op, op.ID, op.Data)
	}
	return b
}

// encodeRecords frames a store image as set ops in ascending id order.
func encodeRecords(recs map[int][]byte) []byte {
	ids := make([]int, 0, len(recs))
	n := 0
	for id, data := range recs {
		ids = append(ids, id)
		n += 9 + len(data)
	}
	sort.Ints(ids)
	b := make([]byte, 0, n)
	for _, id := range ids {
		b = appendFrame(b, rms.OpSet, id, recs[id])
	}
	return b
}

func decodeOps(b []byte) ([]rms.CommitOp, error) {
	var ops []rms.CommitOp
	for len(b) > 0 {
		if len(b) < 9 {
			return nil, errors.New("repl: truncated frame header")
		}
		op := b[0]
		id := int(binary.BigEndian.Uint32(b[1:5]))
		size := int(binary.BigEndian.Uint32(b[5:9]))
		b = b[9:]
		if size > rms.MaxRecordSize || size > len(b) {
			return nil, errors.New("repl: truncated frame payload")
		}
		data := append([]byte(nil), b[:size]...)
		b = b[size:]
		switch op {
		case rms.OpAdd, rms.OpSet, rms.OpDelete:
		default:
			return nil, fmt.Errorf("repl: unknown op %d", op)
		}
		ops = append(ops, rms.CommitOp{Op: op, ID: id, Data: data})
	}
	return ops, nil
}
