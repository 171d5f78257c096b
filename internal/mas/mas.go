// Package mas implements the Mobile Agent Server: the runtime that
// hosts mobile agents at network sites (the IBM Aglets role in the
// paper's prototype) and inside the gateway.
//
// A Server owns the agents currently resident at its address. Each
// agent executes in fuel slices (mavm.Run); between slices the server
// honours management requests — the paper's §3.6 operations: clone an
// agent, retract an agent, dispose a mobile agent, and view agent
// status. When an agent suspends at migrate(host), the server encodes
// it with the destination's codec flavour (discovered via the
// /atp/hello handshake) and transfers it; when an agent completes or
// fails away from home it is automatically shipped back to its home
// gateway so results are never stranded.
//
// Every server write-ahead-logs each resident agent (at its first
// suspension point here, and at each departure) into Config.Journal (by
// default in memory), transfers are two-phase handoffs deduplicated on
// (agent id, hop counter), a failed transfer parks for Upkeep to retry,
// and a replacement Server over a durable store continues interrupted
// journeys via Resume — exactly one copy of each agent is delivered
// even across crashes and partitions. See DESIGN.md §3 (mas).
//
// Endpoints (all under /atp/):
//
//	/atp/hello     flavour + resident services (handshake)
//	/atp/ping      1-byte probe for the paper's Figure 8 RTT selection
//	/atp/transfer  receive an agent image (kind: migrate|done|failed|retracted)
//	/atp/status    agent status by id
//	/atp/clone     clone a resident agent, returns the new id
//	/atp/retract   ship a resident agent to the requester's address
//	/atp/dispose   terminate and drop a resident agent
//	/atp/agents    list resident/known agents
//	/atp/logs      agent log lines
package mas

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
	"pdagent/internal/metrics"
	"pdagent/internal/progcache"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Transfer kinds carried in the "kind" header of /atp/transfer.
const (
	KindMigrate   = "migrate"
	KindDone      = "done"
	KindFailed    = "failed"
	KindRetracted = "retracted"
)

// AgentState is a resident agent's bookkeeping state.
type AgentState string

// Agent bookkeeping states.
const (
	StateRunning   AgentState = "running"   // executing or awaiting a slice
	StateDeparted  AgentState = "departed"  // migrated away; MovedTo set
	StateDelivered AgentState = "delivered" // arrived home, results handed over
	StateDisposed  AgentState = "disposed"  // dropped on request
	StateStranded  AgentState = "stranded"  // cannot move or return; LastErr set
	StateParked    AgentState = "parked"    // journaled transfer failed; awaiting RetryParked
)

// AgentMove is one location event passed to OnAgentMove: the agent
// identified by AgentID is now at (or headed to) Addr. Seq totally
// orders the events of one agent across hosts — departures publish
// 2*hops+1, arrivals 2*(hops+1), terminal delivery 2*hops+3 — so a
// replicated location directory converges regardless of delivery
// order. Terminal marks the journey over.
type AgentMove struct {
	AgentID  string
	Addr     string
	Home     string
	Seq      int
	Terminal bool
}

// Arrival describes an agent coming home, passed to OnAgentHome.
type Arrival struct {
	// Kind is the transfer kind (done, failed, retracted).
	Kind string
	// AgentID, CodeID and Owner name the agent and the subscription
	// whose journey it was.
	AgentID, CodeID, Owner string
	// VM is the reconstructed agent state (results, status, hops).
	VM *mavm.VM
}

// Config configures a Server.
type Config struct {
	// Addr is this host's address on the transport fabric.
	Addr string
	// Codec is the flavour this MAS speaks (its native wire format).
	Codec atp.Codec
	// Transport sends agents to other hosts.
	Transport transport.RoundTripper
	// Services are the resident service agents.
	Services *services.Registry
	// Spawn runs an agent loop asynchronously. Defaults to `go fn()`.
	// The simulated world passes a serial queue for determinism.
	Spawn func(fn func())
	// FuelSlice is the op budget per execution slice (default
	// mavm.DefaultFuel).
	FuelSlice uint64
	// Journal is the write-ahead agent journal (default: an in-memory
	// rms.MemStore, which a crash loses): an agent that enters this
	// server — admitted locally or arriving by /atp/transfer, whose
	// handoff is acked only after that write — is journaled at its first
	// suspension point (enter) and again at each later departure, and a
	// replacement Server over the same durable store re-hydrates them via
	// Resume. An agent that finishes at home inside its first slice is
	// never journaled: OnAgentHome taking the result is the durable
	// hand-over, exactly as for a KindDone homecoming — so a result is
	// as durable as the store OnAgentHome commits it to (a gateway's
	// mailbox store). The journal write is the handoff's commit and the OK
	// response its ack; duplicates dedup on agent id + hop counter.
	Journal rms.Store
	// Programs is the compiled-program cache consulted when an agent
	// arrives by /atp/transfer (and on journal Resume): an image whose
	// bytecode was seen before skips deserialisation and re-validation.
	// A gateway shares its own cache with the embedded MAS; standalone
	// servers default to a private one.
	Programs *progcache.Cache
	// OnAgentHome is invoked when an agent arrives at its home server
	// (the gateway sets this to collect results). Returning nil takes
	// the results: the agent's journal entry is retired and its sender
	// (or the admission that ran it to completion) is answered OK. An
	// error means they were not durably taken — a homecoming is refused
	// retryably so the sender keeps its copy, an admission fails.
	OnAgentHome func(ctx context.Context, a *Arrival) error
	// OnAgentMove, when set, is invoked after every location change of
	// an agent this server admits, receives or ships: admission and
	// arrival (the agent is here; skipped for an agent that finishes
	// inside its first slice — its terminal delivery supersedes it),
	// departure (a forwarding pointer to the destination) and terminal
	// delivery. Clustered gateways feed
	// these events into the federation's location directory; network
	// hosts can relay them to the agent's home gateway. The callback
	// runs synchronously on the agent path and is panic-isolated.
	OnAgentMove func(ctx context.Context, mv AgentMove)
	// Logf, when set, receives server diagnostics.
	Logf func(format string, args ...any)
	// Metrics, when set, is the registry the server's transfer and
	// delivery instruments register in (DESIGN.md §11) — a gateway
	// shares its own with the embedded MAS so one scrape covers both;
	// standalone servers default to a private registry served on
	// /metrics.
	Metrics *metrics.Registry
	// Trace, when set, is the span ring agent journeys are recorded
	// in; /pdagent/trace/{id} serves this member's spans. Defaults to
	// a private ring named after Addr.
	Trace *metrics.TraceRing
}

// record tracks one agent known to this server.
type record struct {
	id      string
	home    string
	codeID  string
	owner   string
	tenant  string // billing account ("" = default)
	vm      *mavm.VM
	state   AgentState
	movedTo string
	lastErr string

	// control flags, read at slice boundaries.
	disposeReq bool
	retractTo  string

	// parked transfer destination and kind, set with StateParked.
	parkTarget string
	parkKind   string
	// failed transfer rounds, and whether one may have landed (sendAgent).
	failedRounds  int
	mayHaveLanded bool

	// image is the agent's last snapshot: the image it arrived in, or
	// the one journalPut last took. journaledTo/journaledKind name the
	// transfer that snapshot was taken for ("" = none) — the one its
	// journal entry names. An agent runs no further here once a
	// snapshot names a destination, so while they name a departure,
	// image is what leaves (shipAgent). Its program bytes never go
	// stale, and every later snapshot reuses them. Owned, like vm, by
	// whichever goroutine is driving the agent; nil once it has left.
	image         *atp.Image
	journaledTo   string
	journaledKind string

	// what /atp/status reports of an agent whose VM has left (vm nil).
	leftStatus mavm.Status
	leftHops   int
	leftSteps  uint64

	// execMu serialises VM execution with clone/status access, and
	// guards dropping vm once the agent has left.
	execMu sync.Mutex
}

// Server is one mobile agent server instance.
type Server struct {
	cfg  Config
	mux  *transport.Mux
	jr   *journal
	dead atomic.Bool // set by Kill: the simulated process crash
	// maxHops bounds an agent's lifetime migrations; an arriving agent
	// beyond the bound is failed home instead of admitted, which stops
	// runaway itineraries from bouncing between hosts forever. Always
	// defaultMaxHops outside the test that tightens it.
	maxHops int

	// §11 instruments, registered once at construction so the agent
	// paths only touch atomics.
	mTransferUs   *metrics.Histogram
	mTransferOut  *metrics.Counter
	mTransferIn   *metrics.Counter
	mTransferFail *metrics.Counter
	mParked       *metrics.Counter
	mDeliver      *metrics.Counter
	admits        [len(entryOutcomes)]atomic.Uint64 // AdmitAgent, by entryOutcomes index
	arrives       [len(entryOutcomes)]atomic.Uint64 // migrate arrivals, likewise

	mu     sync.Mutex
	agents map[string]*record
	// parked is the records of s.agents in StateParked: RetryParked's
	// worklist, so a retry round touches no other record.
	parked   map[*record]struct{}
	flavours map[string]atp.Codec     // destination addr -> codec cache
	accepted map[string]int           // agent id -> highest sent-hop accepted (transfer dedup)
	pending  map[string]pendingAccept // agent id -> handoff mid-commit
	// The retirement ring (retire): the FIFO of retired agent ids, and
	// each one's place in it.
	ring     list.List
	retired  map[string]*list.Element
	cloneSeq int
	logs     []string // ring of recent agent log lines
}

// MaxRetired bounds the finished agents a server remembers — records,
// dedup watermarks and journal tombstones alike — and the finished
// journeys a gateway's registry keeps with their result documents.
// Retries arrive on RetryParked/restart timescales, so a watermark's
// window is short.
const MaxRetired = 4096

// entryOutcomes labels pdagent_admit_total and pdagent_arrive_total:
// what the first slice of an agent entering this server came to (see
// enter).
var entryOutcomes = [...]string{entryDelivered: "delivered", entryShipped: "shipped", entrySuspended: "suspended"}

const (
	entryDelivered = iota
	entryShipped
	entrySuspended
)

// pendingAccept reserves an agent id while a journal write about it is
// in flight. A handoff between reservation and commit (done == nil)
// remembers the watermark to restore if the commit fails, and whether
// the record it replaced had retired; a sender retiring its own
// departure (sendAgent) carries done, closed when that has landed.
type pendingAccept struct {
	prevWM     int
	hadPrev    bool
	wasRetired bool
	done       chan struct{}
}

// maxLogLines bounds the per-server agent log ring.
const maxLogLines = 512

// transferAttempts is how many times a transfer is retried before the
// agent is considered stuck.
const transferAttempts = 3

// maxParkedRounds is how many retries a parked migration that cannot
// have landed waits before it is failed home (see sendAgent): about 5
// minutes at DefaultUpkeepInterval.
const maxParkedRounds = 10

// defaultMaxHops is the hop limit of every server (Server.maxHops).
const defaultMaxHops = 64

// NewServer creates a MAS from a config.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		return nil, errors.New("mas: config missing Addr")
	}
	if cfg.Codec == nil {
		return nil, errors.New("mas: config missing Codec")
	}
	if cfg.Transport == nil {
		return nil, errors.New("mas: config missing Transport")
	}
	if cfg.Services == nil {
		cfg.Services = services.NewRegistry()
	}
	if cfg.Spawn == nil {
		cfg.Spawn = func(fn func()) { go fn() }
	}
	if cfg.FuelSlice == 0 {
		cfg.FuelSlice = mavm.DefaultFuel
	}
	if cfg.Programs == nil {
		cfg.Programs = progcache.New(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Trace == nil {
		cfg.Trace = metrics.NewTraceRing(cfg.Addr, 0)
	}
	if cfg.Journal == nil {
		cfg.Journal = rms.NewMemStore("journal-"+cfg.Addr, 0)
	}
	jr, err := openJournal(cfg.Journal)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		jr:       jr,
		maxHops:  defaultMaxHops,
		agents:   make(map[string]*record),
		parked:   make(map[*record]struct{}),
		flavours: make(map[string]atp.Codec),
		accepted: make(map[string]int),
		pending:  make(map[string]pendingAccept),
		retired:  make(map[string]*list.Element),
	}
	s.mTransferUs = cfg.Metrics.Histogram("pdagent_transfer_us", "Outbound ATP transfer latency (codec adapt, wire, ack), microseconds.")
	s.mTransferOut = cfg.Metrics.Counter("pdagent_transfer_out_total", "Agent images shipped to another host.")
	s.mTransferIn = cfg.Metrics.Counter("pdagent_transfer_in_total", "Agent images accepted from another host.")
	s.mTransferFail = cfg.Metrics.Counter("pdagent_transfer_failed_total", "Outbound transfers that exhausted their retries.")
	s.mParked = cfg.Metrics.Counter("pdagent_transfer_parked_total", "Agents parked for retry after a failed departure.")
	s.mDeliver = cfg.Metrics.Counter("pdagent_deliver_total", "Terminal deliveries at the agent's home.")
	byOutcome := func(counts *[len(entryOutcomes)]atomic.Uint64) func() map[string]float64 {
		return func() map[string]float64 {
			out := make(map[string]float64, len(entryOutcomes))
			for i, name := range entryOutcomes {
				out[name] = float64(counts[i].Load())
			}
			return out
		}
	}
	cfg.Metrics.CounterVecFunc("pdagent_admit_total",
		"Agents admitted here, by what their first slice (run inside admission) came to: delivered finished at home and left no journal record, shipped suspended at migrate (one record, with its destination), suspended ran out of fuel or finished away from home (one record).",
		"outcome", byOutcome(&s.admits))
	cfg.Metrics.CounterVecFunc("pdagent_arrive_total",
		"Agents accepted over /atp/transfer as migrate arrivals, by what their first slice (run inside the handoff) came to: delivered finished here, their home (no record, one dedup tombstone), shipped suspended at migrate (one record, with its destination), suspended ran out of fuel, finished away from home or hit the hop limit (one record).",
		"outcome", byOutcome(&s.arrives))
	cfg.Metrics.GaugeFunc("pdagent_residents", "Agents currently resident on this server (scrape-time walk).",
		func() float64 { return float64(s.ResidentCount()) })
	cfg.Metrics.GaugeVecFunc("pdagent_tenant_residents", "Agents resident on this server, by tenant.", "tenant",
		func() map[string]float64 { return tenant.GaugeRows(s.ResidentsByTenant()) })
	cfg.Metrics.GaugeVecFunc("pdagent_tenant_journal_bytes", "Journaled agent bytes on this server, by tenant.", "tenant",
		func() map[string]float64 { return tenant.GaugeRows(s.JournalBytesByTenant()) })
	if w := rms.WALOf(cfg.Journal); w != nil {
		w.RegisterMetrics(cfg.Metrics, "pdagent_wal", "agent journal")
	}
	m := transport.NewMux()
	m.Handle("/metrics", cfg.Metrics.Handler())
	m.HandleFunc("/pdagent/trace/", s.handleTrace)
	m.HandleFunc("/atp/hello", s.handleHello)
	m.HandleFunc("/atp/ping", s.handlePing)
	m.HandleFunc("/atp/transfer", s.handleTransfer)
	m.HandleFunc("/atp/status", s.handleStatus)
	m.HandleFunc("/atp/clone", s.handleClone)
	m.HandleFunc("/atp/retract", s.handleRetract)
	m.HandleFunc("/atp/dispose", s.handleDispose)
	m.HandleFunc("/atp/agents", s.handleAgents)
	m.HandleFunc("/atp/logs", s.handleLogs)
	s.mux = m
	return s, nil
}

// Addr returns the server's address.
func (s *Server) Addr() string { return s.cfg.Addr }

// Metrics returns the server's instrument registry (the one served on
// /metrics).
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Trace returns the server's span ring.
func (s *Server) Trace() *metrics.TraceRing { return s.cfg.Trace }

// span records one itinerary hop in the member's trace ring.
func (s *Server) span(trace, op, detail string) { s.cfg.Trace.Record(trace, op, detail) }

// handleTrace serves this member's spans for one trace id as a wire
// trace document — the local leaf a gateway's reconstruction queries
// (MAS hosts are not cluster members, so the gateway chases them by
// the addresses its collected spans name).
func (s *Server) handleTrace(_ context.Context, req *transport.Request) *transport.Response {
	id := strings.TrimPrefix(req.Path, "/pdagent/trace/")
	if id == "" {
		return transport.Errorf(transport.StatusBadRequest, "mas %s: trace id missing", s.cfg.Addr)
	}
	spans := s.cfg.Trace.Spans(id)
	td := &wire.TraceDoc{TraceID: id, Spans: make([]wire.TraceSpan, len(spans))}
	for i, sp := range spans {
		td.Spans[i] = wire.TraceSpan{Member: sp.Member, Op: sp.Op, Detail: sp.Detail, At: sp.At, Seq: sp.Seq}
	}
	return transport.OK(td.EncodeXML())
}

// Flavour returns the server's native codec name.
func (s *Server) Flavour() string { return s.cfg.Codec.Name() }

// Handler returns the transport handler for this server (mount it on a
// network host or HTTP listener). A killed server answers nothing —
// the handler refuses every request, like a crashed process.
func (s *Server) Handler() transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, req *transport.Request) *transport.Response {
		if s.dead.Load() {
			return transport.Errorf(transport.StatusUnavailable, "mas %s: server down", s.cfg.Addr)
		}
		return s.mux.Serve(ctx, req)
	})
}

// Kill simulates a process crash: the server stops executing agents,
// refuses requests, and abandons queued work. In-memory state is lost;
// only the journal survives. A replacement Server over the same
// journal store continues the journeys via Resume. Kill is permanent
// for this instance.
func (s *Server) Kill() { s.dead.Store(true) }

// spawn defers a task through cfg.Spawn, dropping it if the server has
// been killed by then (a dead process runs nothing).
func (s *Server) spawn(fn func()) {
	s.cfg.Spawn(func() {
		if s.dead.Load() {
			return
		}
		fn()
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// --- mavm.Host adapter --------------------------------------------------

// hostAPI binds one agent record to the mavm.Host interface.
type hostAPI struct {
	s   *Server
	rec *record
}

func (h hostAPI) HostName() string { return h.s.cfg.Addr }
func (h hostAPI) HomeAddr() string { return h.rec.home }
func (h hostAPI) CallService(name string, args []mavm.Value) (mavm.Value, error) {
	return h.s.cfg.Services.Call(name, args)
}
func (h hostAPI) Log(agentID, msg string) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	line := fmt.Sprintf("[%s@%s] %s", agentID, h.s.cfg.Addr, msg)
	h.s.logs = append(h.s.logs, line)
	if len(h.s.logs) > maxLogLines {
		h.s.logs = h.s.logs[len(h.s.logs)-maxLogLines:]
	}
}

// --- agent admission and execution ---------------------------------------

// AdmitAgent registers a fresh agent (created locally, e.g. by the
// gateway's Agent Creator) and starts executing it. The agent's journal
// footprint and residency bill to tenantID (tenant.DefaultID unless a
// tenant claimed the subscription), and every onward transfer carries
// the account so remote hosts bill it too. ctx carries the journey
// clock in simulated worlds.
//
// The agent's first fuel slice runs here, on the caller's goroutine, and
// the journal records it at its first suspension point (enter): a
// caller waits for at most one FuelSlice of agent CPU. A result the
// home side refuses, or a failed journal write, fails the admission and
// leaves nothing behind.
func (s *Server) AdmitAgent(ctx context.Context, vm *mavm.VM, codeID, owner, tenantID, home string) error {
	rec := &record{
		id:     vm.AgentID,
		home:   home,
		codeID: codeID,
		owner:  owner,
		tenant: tenantID,
		vm:     vm,
		state:  StateRunning,
	}
	s.mu.Lock()
	if _, exists := s.agents[rec.id]; exists {
		s.mu.Unlock()
		return fmt.Errorf("mas: agent %s already known at %s", rec.id, s.cfg.Addr)
	}
	s.putLocked(rec)
	s.mu.Unlock()

	sl, outcome, err := s.enter(ctx, rec)
	if err != nil {
		s.mu.Lock()
		delete(s.agents, rec.id)
		s.mu.Unlock()
		return fmt.Errorf("mas: %w", err)
	}
	s.admits[outcome].Add(1)
	s.carryOn(ctx, rec, sl, outcome)
	return nil
}

// enter is the one rule for every way an agent enters this server —
// AdmitAgent and a migrate arrival over /atp/transfer: run before
// you journal. It runs the agent's first fuel slice here on the caller's
// goroutine and makes the agent durable as that slice left it
// (DESIGN.md §3):
//
//   - finished or failed with this server as its home: the result is
//     handed to OnAgentHome and no journal record of the agent is ever
//     written — the home side's durable store is the hand-over, as for a
//     KindDone homecoming (an arrival leaves its dedup tombstone);
//   - suspended at migrate, or finished away from home: one record
//     carrying the destination — the arrival record and the departure
//     record are the same snapshot — and the transfer leaves on the
//     continuation without journaling again;
//   - out of fuel: one record with no destination.
//
// A state between entry and the first suspension point is one no other
// host can ask for, so nothing is lost by not recording it: until enter
// returns nil the only copy is the one the caller's caller still holds
// (the device's dispatch, the sender's journal entry), and a crash in
// the slice re-runs its service calls from there (at-least-once, as
// after any Resume). On an error nothing durable was written and the
// caller must drop rec.
func (s *Server) enter(ctx context.Context, rec *record) (sl slice, outcome int, err error) {
	sl = s.runSlice(rec)
	if s.dead.Load() {
		// Kill landed during the slice: a crashed process journals and
		// acks nothing.
		return sl, 0, fmt.Errorf("mas %s: server down", s.cfg.Addr)
	}
	target, kind := nextStop(rec, sl)
	if (kind == KindDone || kind == KindFailed) && rec.home == s.cfg.Addr {
		if err := s.deliverLocal(ctx, rec, kind); err != nil {
			return sl, 0, fmt.Errorf("delivering agent %s: %w", rec.id, err)
		}
		return sl, entryDelivered, nil
	}
	if err := s.journalPut(rec, target, kind); err != nil {
		return sl, 0, fmt.Errorf("journaling agent %s: %w", rec.id, err)
	}
	if kind == KindMigrate {
		return sl, entryShipped, nil
	}
	return sl, entrySuspended, nil
}

// carryOn sets an entered agent moving again: it publishes the arrival
// and spawns the agent loop at "just ran sl". An agent delivered inside
// enter has nothing to carry on, and its terminal move supersedes the
// arrival.
func (s *Server) carryOn(ctx context.Context, rec *record, sl slice, outcome int) {
	if outcome == entryDelivered {
		return
	}
	s.notifyMove(ctx, AgentMove{
		AgentID: rec.id, Addr: s.cfg.Addr, Home: rec.home, Seq: 2 * rec.vm.Hops,
	})
	s.startLoop(ctx, rec, &sl)
}

// startLoop spawns the agent loop; ran, when set, is a slice the caller
// already executed (see agentLoop).
func (s *Server) startLoop(ctx context.Context, rec *record, ran *slice) {
	// Detach cancellation: the agent outlives the request that
	// delivered it, but the journey clock must travel along.
	loopCtx := context.WithoutCancel(ctx)
	s.spawn(func() { s.agentLoop(loopCtx, rec, ran) })
}

// slice is what one fuel slice left an agent in.
type slice struct {
	st  mavm.Status
	err error
}

func (s *Server) runSlice(rec *record) slice {
	rec.execMu.Lock()
	defer rec.execMu.Unlock()
	st, err := rec.vm.Run(hostAPI{s, rec}, s.cfg.FuelSlice)
	if st == mavm.StatusFailed {
		s.logf("mas %s: agent %s failed: %v", s.cfg.Addr, rec.id, err)
		s.setErr(rec, rec.vm.FailMsg()) // travels home in the journal entry
	}
	return slice{st: st, err: err}
}

// nextStop says where an agent must go after a slice that suspended or
// finished it: its migrate target, or home with its results. kind is ""
// when the agent stays (out of fuel, or a state Run should never leave).
func nextStop(rec *record, sl slice) (target, kind string) {
	switch {
	case errors.Is(sl.err, mavm.ErrOutOfFuel):
	case sl.st == mavm.StatusMigrating:
		return rec.vm.MigrateTarget(), KindMigrate
	case sl.st == mavm.StatusDone:
		return rec.home, KindDone
	case sl.st == mavm.StatusFailed:
		return rec.home, KindFailed
	}
	return "", ""
}

// agentLoop drives one agent until it leaves this server (migrates,
// returns home, is disposed or retracted) or strands. ran, when set, is
// a slice its entry already executed: the loop is entered at "just ran,
// status in hand". The control flags are checked either way, so a
// dispose or retract that landed since entry still wins over the
// departure.
func (s *Server) agentLoop(ctx context.Context, rec *record, ran *slice) {
	for {
		if s.dead.Load() {
			return
		}
		// Control flags first: dispose and retract win over execution.
		s.mu.Lock()
		dispose, retractTo := rec.disposeReq, rec.retractTo
		s.mu.Unlock()
		if dispose {
			s.setState(rec, StateDisposed, "")
			s.retire(rec, StateDisposed)
			s.logf("mas %s: disposed agent %s", s.cfg.Addr, rec.id)
			return
		}
		if retractTo != "" {
			s.shipAgent(ctx, rec, retractTo, KindRetracted)
			return
		}

		var sl slice
		if ran != nil {
			sl, ran = *ran, nil
		} else {
			sl = s.runSlice(rec)
		}
		if more, _ := s.afterSlice(ctx, rec, sl); !more {
			return
		}
	}
}

// afterSlice routes an agent by what its last slice left it in; more
// means it only ran out of fuel and wants another slice. The error is
// a home delivery this server could not complete (the agent strands).
func (s *Server) afterSlice(ctx context.Context, rec *record, sl slice) (more bool, err error) {
	if errors.Is(sl.err, mavm.ErrOutOfFuel) {
		return true, nil
	}
	switch target, kind := nextStop(rec, sl); {
	case kind == "":
		// Run refused (e.g. already done): treat as internal error.
		s.setErr(rec, fmt.Sprintf("unexpected run state %v: %v", sl.st, sl.err))
		s.setState(rec, StateStranded, "")
	case kind == KindMigrate:
		s.shipAgent(ctx, rec, target, kind)
	default:
		err = s.finishAgent(ctx, rec, kind)
	}
	return false, err
}

// finishAgent routes a completed/failed agent's results: locally if
// this server is its home, otherwise shipped home.
func (s *Server) finishAgent(ctx context.Context, rec *record, kind string) error {
	if rec.home == s.cfg.Addr {
		return s.deliverLocal(ctx, rec, kind)
	}
	s.shipAgent(ctx, rec, rec.home, kind)
	return nil
}

// deliverLocal hands a finished agent to the home side — its live VM,
// nothing marshalled. If the home side did not take the results the
// agent strands (its journal entry, if it has one, stays for Resume)
// and the error says why: marking it delivered would hide the failure
// behind an eternal "still travelling".
func (s *Server) deliverLocal(ctx context.Context, rec *record, kind string) error {
	if s.cfg.OnAgentHome != nil {
		a := &Arrival{Kind: kind, AgentID: rec.id, CodeID: rec.codeID, Owner: rec.owner, VM: rec.vm}
		if err := s.notifyHome(ctx, a); err != nil {
			s.logf("mas %s: home delivery of %s: %v", s.cfg.Addr, rec.id, err)
			s.setErr(rec, "home delivery: "+err.Error())
			s.setState(rec, StateStranded, "")
			return err
		}
	}
	s.setState(rec, StateDelivered, "")
	s.mDeliver.Inc()
	s.span(rec.id, "deliver", kind)
	hops := rec.vm.Hops
	s.retire(rec, StateDelivered)
	vacate(rec)
	s.notifyMove(ctx, AgentMove{
		AgentID: rec.id, Addr: s.cfg.Addr, Home: rec.home,
		Seq: 2*hops + 3, Terminal: true,
	})
	return nil
}

// vacate makes the record of an agent that has left or finished here a
// pointer: its VM and image go, and what /atp/status reports of them
// stays.
func vacate(rec *record) {
	rec.execMu.Lock()
	rec.leftStatus, rec.leftHops, rec.leftSteps = rec.vm.Status(), rec.vm.Hops, rec.vm.Steps
	rec.vm, rec.image = nil, nil
	rec.execMu.Unlock()
}

// notifyMove invokes the OnAgentMove callback, isolated from panics
// like notifyHome (a location-directory bug must not kill a journey).
func (s *Server) notifyMove(ctx context.Context, mv AgentMove) {
	if s.cfg.OnAgentMove == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.logf("mas %s: OnAgentMove panic for agent %s: %v", s.cfg.Addr, mv.AgentID, r)
		}
	}()
	s.cfg.OnAgentMove(ctx, mv)
}

// notifyHome invokes the OnAgentHome callback, isolating the agent
// loop and the transfer handler from panics in the home-side result
// handling (the gateway's callback stores documents and fans work out
// to other subsystems; a bug there must not kill the server). It
// returns the callback's error, or one describing the panic.
func (s *Server) notifyHome(ctx context.Context, a *Arrival) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("mas %s: OnAgentHome panic for agent %s: %v", s.cfg.Addr, a.AgentID, r)
			err = fmt.Errorf("home delivery callback panicked: %v", r)
		}
	}()
	return s.cfg.OnAgentHome(ctx, a)
}

// errEncoding wraps a failed snapshot, which would fail the same way again.
var errEncoding = errors.New("encoding agent")

// snapshot is the one encoder of an agent: its image as the VM now
// stands. The program bytes come from the record's last image when it
// has one (an arrival's, or an earlier snapshot's) and are marshaled
// otherwise — once per record, for an agent admitted or cloned here.
func snapshot(rec *record) (*atp.Image, error) {
	im := &atp.Image{AgentID: rec.id, Home: rec.home, CodeID: rec.codeID, Owner: rec.owner}
	var err error
	if rec.image != nil {
		im.Program = rec.image.Program
	} else if im.Program, err = mavm.MarshalProgram(rec.vm.Program()); err != nil {
		return nil, fmt.Errorf("%w: %w", errEncoding, err)
	}
	if im.State, err = mavm.MarshalState(rec.vm); err != nil {
		return nil, fmt.Errorf("%w: %w", errEncoding, err)
	}
	return im, nil
}

// decodeAgent is the one decoder of an agent: an image arriving over
// /atp/transfer or re-hydrated from a journal becomes a record around a
// validated VM, keeping im for its program bytes. Bytecode seen before
// (the same agent hopping through, a retried handoff, any agent of the
// same application) skips deserialisation and re-validation through the
// program cache.
func (s *Server) decodeAgent(im *atp.Image) (*record, error) {
	prog, _, err := s.cfg.Programs.UnmarshalBytes(im.Program)
	if err != nil {
		return nil, fmt.Errorf("agent program: %w", err)
	}
	vm, err := mavm.UnmarshalState(prog, im.State)
	if err != nil {
		return nil, fmt.Errorf("agent state: %w", err)
	}
	if vm.AgentID != im.AgentID {
		return nil, fmt.Errorf("agent id mismatch: envelope %q, state %q", im.AgentID, vm.AgentID)
	}
	return &record{id: im.AgentID, home: im.Home, codeID: im.CodeID, owner: im.Owner, vm: vm, image: im}, nil
}

// shipAgent is the two-phase handoff's sending side: the suspended
// image (and its destination) is made durable, then sendAgent puts it
// on the wire. An agent whose last snapshot already says exactly that —
// it was journaled with this destination when it entered, it is a
// parked transfer being retried, or a resumed entry named it — sends
// that image without marshaling or journaling again.
func (s *Server) shipAgent(ctx context.Context, rec *record, target, kind string) {
	if rec.journaledTo != target || rec.journaledKind != kind {
		err := s.journalPut(rec, target, kind)
		switch {
		case errors.Is(err, errEncoding):
			s.setErr(rec, err.Error())
			s.setState(rec, StateStranded, "")
			return
		case err != nil:
			// The journal write must precede the wire: an unjournaled image
			// whose ack is missed is lost in a crash. RetryParked re-attempts
			// the journal too.
			s.logf("mas %s: journaling departure of %s: %v", s.cfg.Addr, rec.id, err)
			s.setErr(rec, "journaling departure: "+err.Error())
			s.park(rec, target, kind)
			return
		}
	}
	s.sendAgent(ctx, rec, target, kind)
}

// park leaves rec for RetryParked (or a restart's Resume) to ship to
// target.
func (s *Server) park(rec *record, target, kind string) {
	s.mu.Lock()
	rec.state = StateParked
	rec.parkTarget, rec.parkKind = target, kind
	s.parked[rec] = struct{}{}
	s.mu.Unlock()
	s.mParked.Inc()
}

// sendAgent encodes the agent's last snapshot (rec.image) for the
// destination's flavour and transfers it, with retries. The receiver's
// OK is the commit-ack that releases the journal entry; the VM leaves
// with it. A failed round parks the agent for RetryParked / Resume; a
// migration none of whose rounds can have landed is failed home after
// maxParkedRounds retries. One that may have (an answer lost) is never,
// or a lost ack would leave a second copy; a homecoming, or a migration
// home, parks until delivered: failing it home goes to the same host.
func (s *Server) sendAgent(ctx context.Context, rec *record, target, kind string) {
	sentHops := rec.vm.Hops // as serialised into the departing image
	im := rec.image
	// Mark the departure BEFORE the image leaves. Once the receiver
	// acks, it starts the agent immediately; a fast hop (program-cache
	// hit, local service, migrate home) can bring the agent BACK here
	// before our RoundTrip call even returns. If this record still read
	// StateRunning at that moment, the homecoming transfer would bounce
	// with a permanent conflict and strand the agent. A failed send
	// parks or fails the agent home, so it never stays "departed".
	s.setState(rec, StateDeparted, target)
	shipStart := time.Now()
	if landed, err := s.transferImage(ctx, im, target, kind, rec.tenant); err != nil {
		s.mTransferFail.Inc()
		s.logf("mas %s: transfer of %s to %s failed: %v", s.cfg.Addr, rec.id, target, err)
		msg := fmt.Sprintf("transfer to %s: %v", target, err)
		s.setErr(rec, msg)
		rec.failedRounds++
		rec.mayHaveLanded = rec.mayHaveLanded || landed
		if kind == KindMigrate && target != rec.home && !rec.mayHaveLanded && rec.failedRounds > maxParkedRounds {
			s.logf("mas %s: failing agent %s home after %d failed rounds", s.cfg.Addr, rec.id, rec.failedRounds)
			rec.execMu.Lock()
			rec.vm.ForceFail("mas: " + msg)
			rec.execMu.Unlock()
			s.setState(rec, StateRunning, "") // journaled as resident, not as departed
			_ = s.finishAgent(ctx, rec, KindFailed)
			return
		}
		s.park(rec, target, kind)
		s.logf("mas %s: parked agent %s (%s -> %s)", s.cfg.Addr, rec.id, kind, target)
		return
	}
	s.mTransferUs.Observe(time.Since(shipStart))
	s.mTransferOut.Inc()
	// The receiver holds the agent now; the record is a pointer.
	vacate(rec)
	s.span(rec.id, "transfer-out", target)
	// Publish the forwarding pointer (seq 2h+1 sorts after our arrival
	// at 2h and before the destination's arrival at 2h+2, so a racing
	// re-arrival here can never be overwritten by this stale event).
	s.notifyMove(ctx, AgentMove{
		AgentID: rec.id, Addr: target, Home: rec.home, Seq: 2*sentHops + 1,
	})
	// Post-transfer bookkeeping must tolerate the agent having ALREADY
	// returned here while the ack was in flight: a fast next hop can
	// re-deliver the agent before this line runs, and the re-arrival
	// replaced s.agents[id] with a fresh (journaled) record. Writing
	// our departure tombstone then would overwrite the resident agent's
	// journal entry, and a crash would lose the only copy.
	s.mu.Lock()
	if s.agents[rec.id] != rec {
		// Superseded: the re-arrival owns the id (and its journal
		// entry) now; our departure leaves no trace to write.
		s.mu.Unlock()
		return
	}
	// Reserve the id while the departure is retired, so a re-arrival
	// racing this block cannot interleave its journal write with ours.
	// It waits in reserveHandoff for done rather than being refused: a
	// journey that laps its sender (a one-bank itinerary is back within
	// a millisecond) would lose three zero-delay retries to one fsync
	// and park for a whole retry interval.
	done := make(chan struct{})
	s.pending[rec.id] = pendingAccept{done: done}
	s.mu.Unlock()
	s.retire(rec, StateDeparted)
	s.mu.Lock()
	delete(s.pending, rec.id)
	s.mu.Unlock()
	close(done)
}

// transferImage sends an encoded image to target with flavour
// adaptation and bounded retries. A failure's landed says an attempt
// may have reached target: an error not transport.NotDelivered, after
// the handshake. The tenant account rides as a
// transport header rather than inside the image: the ATP codecs
// (aglets binary, voyager XML) have a fixed field set that foreign
// hosts parse strictly, so the envelope cannot grow without breaking
// wire compatibility — and a header is exactly the out-of-band routing
// metadata layer this belongs to.
func (s *Server) transferImage(ctx context.Context, im *atp.Image, target, kind, tenantID string) (landed bool, err error) {
	codec, err := s.codecFor(ctx, target)
	if err != nil {
		return false, err
	}
	body, err := codec.Encode(im)
	if err != nil {
		return false, err
	}
	req := &transport.Request{Path: "/atp/transfer", Body: body}
	req.SetHeader("kind", kind)
	req.SetHeader("agent", im.AgentID)
	if tenantID != "" {
		req.SetHeader("tenant", tenantID)
	}
	var lastErr error
	for attempt := 0; attempt < transferAttempts; attempt++ {
		resp, err := s.cfg.Transport.RoundTrip(ctx, target, req)
		if err != nil {
			lastErr = err
			landed = landed || !transport.NotDelivered(err)
			continue
		}
		if resp.IsOK() {
			return false, nil
		}
		lastErr = resp.Err()
		// Conflict (duplicate id) and client errors will not improve
		// with retries.
		if resp.Status != transport.StatusUnavailable {
			break
		}
	}
	return landed, lastErr
}

// codecFor resolves the codec flavour spoken at addr, caching the
// /atp/hello handshake (the gateway-side "adapt to any MAS" mechanism).
func (s *Server) codecFor(ctx context.Context, addr string) (atp.Codec, error) {
	if addr == s.cfg.Addr {
		return s.cfg.Codec, nil
	}
	s.mu.Lock()
	c, ok := s.flavours[addr]
	s.mu.Unlock()
	if ok {
		return c, nil
	}
	resp, err := s.cfg.Transport.RoundTrip(ctx, addr, &transport.Request{Path: "/atp/hello"})
	if err != nil {
		return nil, fmt.Errorf("mas: hello to %s: %w", addr, err)
	}
	if !resp.IsOK() {
		return nil, fmt.Errorf("mas: hello to %s: %w", addr, resp.Err())
	}
	name := resp.GetHeader("flavour")
	if name == "" {
		// Fall back to parsing the XML body.
		if root, perr := kxml.ParseBytes(resp.Body); perr == nil {
			name = root.AttrDefault("flavour", "")
		}
	}
	codec, err := atp.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("mas: %s: %w", addr, err)
	}
	s.mu.Lock()
	s.flavours[addr] = codec
	s.mu.Unlock()
	return codec, nil
}

func (s *Server) setState(rec *record, st AgentState, movedTo string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.state = st
	if movedTo != "" {
		rec.movedTo = movedTo
	}
}

func (s *Server) setErr(rec *record, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.lastErr = msg
}

func (s *Server) lookup(id string) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.agents[id]
	return rec, ok
}

// --- handlers ------------------------------------------------------------

func (s *Server) handleHello(_ context.Context, _ *transport.Request) *transport.Response {
	root := kxml.NewElement("mas")
	root.SetAttr("addr", s.cfg.Addr)
	root.SetAttr("flavour", s.cfg.Codec.Name())
	for _, svc := range s.cfg.Services.Names() {
		root.AddElement("service").SetAttr("name", svc)
	}
	resp := transport.OK(root.EncodeDocument())
	resp.SetHeader("flavour", s.cfg.Codec.Name())
	return resp
}

func (s *Server) handlePing(_ context.Context, _ *transport.Request) *transport.Response {
	// The paper's Figure 8 sends "1-bit data"; one byte is our floor.
	return transport.OK([]byte("p"))
}

func (s *Server) handleTransfer(ctx context.Context, req *transport.Request) *transport.Response {
	im, err := s.cfg.Codec.Decode(req.Body)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "decoding agent (flavour %s): %v", s.cfg.Codec.Name(), err)
	}
	rec, err := s.decodeAgent(im)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "%v", err)
	}
	vm := rec.vm
	kind := req.GetHeader("kind")
	if kind == "" {
		kind = KindMigrate
	}
	// Billing account travels out-of-band (see transferImage); an absent
	// header is the single-tenant default.
	rec.tenant = req.GetHeader("tenant")
	// The hop counter as serialised by the sender is the dedup key of
	// the two-phase handoff: a sender that never saw our OK retries the
	// same (agent id, hop) pair, and the watermark turns the retry into
	// an idempotent commit-ack instead of a second agent copy. The
	// watermark is journaled with the agent, so it survives a crash
	// between our journal write and the sender receiving the OK.
	sentHop := vm.Hops
	switch kind {
	case KindMigrate:
		if vm.Status() != mavm.StatusMigrating {
			return transport.Errorf(transport.StatusBadRequest, "migrate transfer with %v agent", vm.Status())
		}
		if vm.MigrateTarget() != s.cfg.Addr {
			return transport.Errorf(transport.StatusBadRequest,
				"agent targeted %q, arrived at %q", vm.MigrateTarget(), s.cfg.Addr)
		}
		rec.state = StateRunning
		overLimit := vm.Hops >= s.maxHops
		if overLimit {
			// Runaway itinerary: accept the image but terminate the
			// journey, sending the evidence home instead of admitting
			// the agent for another lap. Run refuses a failed VM, so its
			// first slice here is the failure itself.
			s.logf("mas %s: agent %s exceeded %d hops, failing home", s.cfg.Addr, im.AgentID, s.maxHops)
			vm.ForceFail(fmt.Sprintf("mas: hop limit %d exceeded at %s", s.maxHops, s.cfg.Addr))
		} else {
			vm.ClearMigration()
		}
		if resp := s.reserveHandoff(ctx, rec, sentHop, !overLimit); resp != nil {
			return resp
		}
		// Run before you journal: the first slice runs here (enter), under
		// the reservation, and the OK below leaves only once the agent is
		// durable as the slice left it — in the journal, or with the home
		// side. Until then the sender's journal holds the only copy: any
		// failure answers a retryable 503 with the reservation and the
		// watermark rolled back, so the sender parks and redelivers, and a
		// crash in here leaves nothing for Resume to find.
		sl, outcome, err := s.enter(ctx, rec)
		if err != nil {
			s.abortHandoff(rec, true)
			return transport.Errorf(transport.StatusUnavailable, "%v", err)
		}
		s.commitHandoff(rec.id)
		s.arrives[outcome].Add(1)
		s.mTransferIn.Inc()
		s.span(rec.id, "transfer-in", kind)
		// ClearMigration counted the hop, so this arrival's seq (2h+2
		// relative to the sender's h) supersedes the sender's departure
		// pointer (2h+1); an over-limit arrival's hop is not counted and
		// its stale seq moves no pointer.
		s.carryOn(ctx, rec, sl, outcome)
		if overLimit {
			return transport.OKText("hop limit exceeded; journey terminated")
		}
		return transport.OKText("accepted " + rec.id)

	case KindDone, KindFailed, KindRetracted:
		if im.Home != s.cfg.Addr {
			return transport.Errorf(transport.StatusBadRequest,
				"%s delivery for home %q arrived at %q", kind, im.Home, s.cfg.Addr)
		}
		rec.state, rec.lastErr, rec.image = StateDelivered, vm.FailMsg(), nil
		if resp := s.reserveHandoff(ctx, rec, sentHop, false); resp != nil {
			return resp
		}
		if s.cfg.OnAgentHome != nil {
			a := &Arrival{Kind: kind, AgentID: im.AgentID, CodeID: im.CodeID, Owner: im.Owner, VM: vm}
			if err := s.notifyHome(ctx, a); err != nil {
				s.setErr(rec, "home delivery: "+err.Error())
				s.setState(rec, StateStranded, "")
				// Release the reservation without committing a watermark:
				// the results were never taken, so a retried delivery
				// must not be treated as duplicate — and answer retryably,
				// so a journaled sender keeps its copy parked instead of
				// tombstoning the only one. The stranded record stays
				// visible for operators until the retry replaces it.
				s.abortHandoff(rec, false)
				return transport.Errorf(transport.StatusUnavailable,
					"home delivery of %s failed: %v", rec.id, err)
			}
		}
		s.commitHandoff(rec.id)
		s.mDeliver.Inc()
		s.span(rec.id, "deliver", kind)
		// Tombstone after the callback took the results: it is the
		// durable dedup marker. A crash before this write makes the
		// sender's retry redeliver (the gateway's result intake is
		// idempotent); a crash after it dedups cleanly.
		s.retire(rec, StateDelivered)
		vacate(rec)
		s.notifyMove(ctx, AgentMove{
			AgentID: rec.id, Addr: s.cfg.Addr, Home: rec.home,
			Seq: 2*sentHop + 3, Terminal: true,
		})
		return transport.OKText("delivered " + rec.id)

	default:
		return transport.Errorf(transport.StatusBadRequest, "unknown transfer kind %q", kind)
	}
}

// reserveHandoff claims the handoff (rec.id, sentHop), inserts rec
// into the agent table and advances the watermark — but the
// reservation stays marked pending until commitHandoff, and a retry
// arriving mid-commit gets StatusUnavailable (retryable) rather than
// a duplicate-OK the first request might still roll back: acking a
// handoff whose commit later fails would leave the agent existing
// nowhere. A reservation that is this server's own departure
// bookkeeping (sendAgent retiring the hop the agent has just come back
// from) is waited for instead: retiring cannot fail the arrival, only
// delay it. The watermark is advanced here (not
// at commit) so the journal write between reserve and commit records
// it durably. A nil return means the reservation is held; otherwise
// the response to send.
func (s *Server) reserveHandoff(ctx context.Context, rec *record, sentHop int, refuseRunning bool) *transport.Response {
	s.mu.Lock()
	// The pending check must come first: while a commit is in flight
	// the advanced watermark must not be visible as a duplicate-OK.
	for {
		p, inFlight := s.pending[rec.id]
		if !inFlight {
			break
		}
		s.mu.Unlock()
		if p.done == nil {
			return transport.Errorf(transport.StatusUnavailable,
				"handoff of %s is mid-commit, retry", rec.id)
		}
		select {
		case <-p.done:
		case <-ctx.Done():
			return transport.Errorf(transport.StatusUnavailable,
				"handoff of %s: %v", rec.id, ctx.Err())
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	// Dedup before the resident-copy check: a retried handoff whose
	// first copy already landed (and may be running) must get the
	// idempotent commit-ack, not a conflict the sender cannot act on.
	prevWM, hadPrev := s.accepted[rec.id]
	if hadPrev && sentHop <= prevWM {
		return dupResponse(rec.id, sentHop)
	}
	if old, exists := s.agents[rec.id]; refuseRunning && exists && old.state == StateRunning {
		return transport.Errorf(transport.StatusConflict, "agent %s already running here", rec.id)
	}
	s.pending[rec.id] = pendingAccept{prevWM: prevWM, hadPrev: hadPrev, wasRetired: s.putLocked(rec)}
	s.accepted[rec.id] = sentHop
	return nil
}

// commitHandoff releases the reservation taken by reserveHandoff,
// making the already-advanced watermark answerable as a duplicate-OK.
func (s *Server) commitHandoff(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, id)
}

// abortHandoff rolls the watermark back and releases the reservation,
// optionally dropping the inserted record (dropRecord=false keeps it
// for operator visibility, e.g. a stranded delivery). A dropped record
// that replaced a retired one leaves the id retired again, so the
// watermark rolled back to stays under the ring's cap.
func (s *Server) abortHandoff(rec *record, dropRecord bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending[rec.id]
	if p.hadPrev {
		s.accepted[rec.id] = p.prevWM
	} else {
		delete(s.accepted, rec.id)
	}
	delete(s.pending, rec.id)
	if dropRecord {
		delete(s.agents, rec.id)
		if p.wasRetired {
			s.retired[rec.id] = s.ring.PushBack(rec.id)
		}
	}
}

// dupResponse is the idempotent commit-ack for a retried transfer the
// server already accepted.
func dupResponse(id string, sentHop int) *transport.Response {
	resp := transport.OKText(fmt.Sprintf("duplicate transfer of %s (hop %d) ignored", id, sentHop))
	resp.SetHeader("dedup", "1")
	return resp
}

func (s *Server) handleStatus(_ context.Context, req *transport.Request) *transport.Response {
	id := req.GetHeader("agent")
	rec, ok := s.lookup(id)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "no agent %q at %s", id, s.cfg.Addr)
	}
	return transport.OK(s.statusXML(rec).EncodeDocument())
}

func (s *Server) statusXML(rec *record) *kxml.Node {
	// Lock order: never hold s.mu while taking execMu — the agent loop
	// acquires them in the opposite order (execMu during Run, then s.mu
	// inside hostAPI.Log).
	s.mu.Lock()
	state, movedTo, lastErr, codeID := rec.state, rec.movedTo, rec.lastErr, rec.codeID
	s.mu.Unlock()
	rec.execMu.Lock()
	vmStatus, hops, steps := rec.leftStatus, rec.leftHops, rec.leftSteps
	if rec.vm != nil {
		vmStatus, hops, steps = rec.vm.Status(), rec.vm.Hops, rec.vm.Steps
	}
	rec.execMu.Unlock()

	n := kxml.NewElement("agent-status")
	n.SetAttr("id", rec.id)
	n.SetAttr("host", s.cfg.Addr)
	n.SetAttr("state", string(state))
	n.SetAttr("vm-status", vmStatus.String())
	n.SetAttr("hops", strconv.Itoa(hops))
	n.SetAttr("steps", strconv.FormatUint(steps, 10))
	n.SetAttr("code-id", codeID)
	if movedTo != "" {
		n.SetAttr("moved-to", movedTo)
	}
	if lastErr != "" {
		n.SetAttr("error", lastErr)
	}
	return n
}

func (s *Server) handleClone(ctx context.Context, req *transport.Request) *transport.Response {
	id := req.GetHeader("agent")
	rec, ok := s.lookup(id)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "no agent %q at %s", id, s.cfg.Addr)
	}
	s.mu.Lock()
	if rec.state != StateRunning {
		state := rec.state
		moved := rec.movedTo
		s.mu.Unlock()
		resp := transport.Errorf(transport.StatusConflict, "agent %q is %s, cannot clone", id, state)
		if moved != "" {
			resp.SetHeader("moved-to", moved)
		}
		return resp
	}
	s.cloneSeq++
	newID := fmt.Sprintf("%s.c%d", id, s.cloneSeq)
	s.mu.Unlock()

	rec.execMu.Lock()
	if rec.vm == nil { // it left since the state check
		rec.execMu.Unlock()
		return transport.Errorf(transport.StatusConflict, "agent %q has left, cannot clone", id)
	}
	cloneVM, err := rec.vm.Clone(newID)
	rec.execMu.Unlock()
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "cloning %q: %v", id, err)
	}
	// A clone bills to its parent's account — cloning must not launder
	// resource consumption into the default tenant.
	cloneRec := &record{
		id: newID, home: rec.home, codeID: rec.codeID, owner: rec.owner,
		tenant: rec.tenant, vm: cloneVM, state: StateRunning,
	}
	s.mu.Lock()
	s.putLocked(cloneRec)
	s.mu.Unlock()
	// A clone of a migrating agent continues its journey, journaled with
	// its destination like any departure; a running clone starts here.
	target, kind := "", ""
	if cloneVM.Status() == mavm.StatusMigrating {
		target, kind = cloneVM.MigrateTarget(), KindMigrate
	}
	if err := s.journalPut(cloneRec, target, kind); err != nil {
		// A clone has no sender holding a backup copy: admitting it
		// unjournaled would let a crash erase it silently. Refuse.
		s.mu.Lock()
		delete(s.agents, newID)
		s.mu.Unlock()
		return transport.Errorf(transport.StatusServerError, "journaling clone %s: %v", newID, err)
	}
	if kind != "" {
		s.spawn(func() { s.shipAgent(context.WithoutCancel(ctx), cloneRec, target, kind) })
	} else {
		s.startLoop(ctx, cloneRec, nil)
	}
	resp := transport.OKText(newID)
	resp.SetHeader("agent", newID)
	return resp
}

func (s *Server) handleRetract(_ context.Context, req *transport.Request) *transport.Response {
	id := req.GetHeader("agent")
	to := req.GetHeader("to")
	if to == "" {
		return transport.Errorf(transport.StatusBadRequest, "retract needs a 'to' address")
	}
	rec, ok := s.lookup(id)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "no agent %q at %s", id, s.cfg.Addr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.state {
	case StateRunning:
		rec.retractTo = to
		return transport.OKText("retract scheduled")
	case StateDeparted:
		resp := transport.Errorf(transport.StatusGone, "agent %q moved to %s", id, rec.movedTo)
		resp.SetHeader("moved-to", rec.movedTo)
		return resp
	default:
		return transport.Errorf(transport.StatusConflict, "agent %q is %s", id, rec.state)
	}
}

func (s *Server) handleDispose(_ context.Context, req *transport.Request) *transport.Response {
	id := req.GetHeader("agent")
	rec, ok := s.lookup(id)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "no agent %q at %s", id, s.cfg.Addr)
	}
	s.mu.Lock()
	state, movedTo := rec.state, rec.movedTo
	if state == StateRunning {
		rec.disposeReq = true
	}
	s.mu.Unlock()
	switch state {
	case StateRunning:
		return transport.OKText("dispose scheduled")
	case StateDeparted:
		resp := transport.Errorf(transport.StatusGone, "agent %q moved to %s", id, movedTo)
		resp.SetHeader("moved-to", movedTo)
		return resp
	}
	// A finished (or hopelessly parked, or stranded) agent is forgotten
	// outright: record, watermark and journal entry.
	if !s.forget(id, func() bool { return s.agents[id] == rec }) {
		return transport.Errorf(transport.StatusUnavailable, "agent %q is mid-handoff, retry", id)
	}
	return transport.OKText("disposed")
}

// RetireDisposed retires the departure record this home keeps for an
// agent its owner disposed of away from home (the gateway's
// /pdagent/manage/dispose): the homecoming that would replace it will
// not come, so it retires like any finished agent, and its journaled
// pointer goes with it.
func (s *Server) RetireDisposed(id string) {
	s.mu.Lock()
	rec := s.agents[id]
	away := rec != nil && rec.home == s.cfg.Addr && rec.state == StateDeparted
	s.mu.Unlock()
	if away {
		s.retire(rec, StateDisposed)
	}
}

// Journeys passes seen every agent id this server remembers — after
// Resume, what its journal kept, retired ones included — and open each
// agent homed here whose journey is not over: resident (running or
// parked), or departed and not home yet.
func (s *Server) Journeys(seen func(id string), open func(id, codeID, owner, tenant string)) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.agents)+len(s.retired))
	var homed []*record
	for id, rec := range s.agents {
		ids = append(ids, id)
		if rec.home == s.cfg.Addr && (rec.state == StateRunning || rec.state == StateParked || rec.state == StateDeparted) {
			homed = append(homed, rec)
		}
	}
	for id := range s.retired {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		seen(id)
	}
	for _, rec := range homed { // identity fields, fixed before a record is published
		open(rec.id, rec.codeID, rec.owner, rec.tenant)
	}
}

func (s *Server) handleAgents(_ context.Context, _ *transport.Request) *transport.Response {
	s.mu.Lock()
	ids := make([]string, 0, len(s.agents))
	for id := range s.agents {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	root := kxml.NewElement("agents")
	root.SetAttr("host", s.cfg.Addr)
	for _, id := range ids {
		rec, _ := s.lookup(id)
		if rec != nil {
			root.Add(s.statusXML(rec))
		}
	}
	return transport.OK(root.EncodeDocument())
}

func (s *Server) handleLogs(_ context.Context, req *transport.Request) *transport.Response {
	filter := req.GetHeader("agent")
	s.mu.Lock()
	defer s.mu.Unlock()
	root := kxml.NewElement("logs")
	root.SetAttr("host", s.cfg.Addr)
	for _, line := range s.logs {
		if filter == "" || containsAgent(line, filter) {
			root.AddElement("line").AddText(line)
		}
	}
	return transport.OK(root.EncodeDocument())
}

func containsAgent(line, id string) bool {
	return len(line) > len(id) && line[1:1+len(id)] == id
}

// --- durability: journal writes, parked retries, crash recovery --------

// journalPut snapshots rec and journals the snapshot, which becomes
// rec.image. target/kind record a pending transfer destination. A
// snapshot that fails wraps errEncoding. Callers must not be racing the
// VM (journal only at slice boundaries: the first suspension point
// after the agent entered, departure).
func (s *Server) journalPut(rec *record, target, kind string) error {
	im, err := snapshot(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	wm, ok := s.accepted[rec.id]
	if !ok {
		wm = -1
	}
	e := &journalEntry{
		Image: *im, State: rec.state, Target: target, Kind: kind,
		LastErr: rec.lastErr, Tenant: rec.tenant, Watermark: wm,
	}
	s.mu.Unlock()
	if err = s.jr.put(e); err != nil {
		return err
	}
	rec.image, rec.journaledTo, rec.journaledKind = im, target, kind
	return nil
}

// retire is the one retirement rule for an agent no longer resident
// here (departed, delivered, disposed). Its journal entry shrinks to a
// dedup tombstone — the watermark must outlive the resident copy, or a
// sender's retry after a crash would land a second copy — or, without a
// watermark, is dropped. A departure from its home keeps its tombstone,
// watermark or not, naming where the agent went: the record stays as the
// first forwarding pointer until the homecoming replaces it, and Resume
// restores it, so a restarted home still knows the journey. Any other
// retiree then joins the retirement ring.
func (s *Server) retire(rec *record, st AgentState) {
	away := st == StateDeparted && rec.home == s.cfg.Addr
	s.mu.Lock()
	wm, ok := s.accepted[rec.id]
	movedTo := rec.movedTo
	s.mu.Unlock()
	if !ok {
		wm = -1
	}
	var err error
	if ok || away {
		e := &journalEntry{
			Image:  atp.Image{AgentID: rec.id, Home: rec.home, CodeID: rec.codeID, Owner: rec.owner},
			Tenant: rec.tenant, State: st, Watermark: wm,
		}
		if away {
			e.Target = movedTo
		}
		err = s.jr.put(e)
	} else {
		err = s.jr.drop(rec.id)
	}
	if err != nil {
		s.logf("mas %s: retiring journal entry for %s: %v", s.cfg.Addr, rec.id, err)
	}
	if !away {
		s.enring(rec.id, rec)
	}
}

// putLocked (s.mu held) makes rec its id's record and reports whether
// the id had retired: it leaves the ring again.
func (s *Server) putLocked(rec *record) (wasRetired bool) {
	delete(s.parked, s.agents[rec.id])
	s.agents[rec.id] = rec
	return s.unretireLocked(rec.id)
}

// unretireLocked (s.mu held) takes id out of the retirement ring.
func (s *Server) unretireLocked(id string) bool {
	el, ok := s.retired[id]
	if ok {
		s.ring.Remove(el)
		delete(s.retired, id)
	}
	return ok
}

// enring retires id into the ring if rec is still its record (nil: a
// tombstone re-read with no record) and forgets the oldest retirees past
// MaxRetired.
func (s *Server) enring(id string, rec *record) {
	s.mu.Lock()
	if s.agents[id] == rec {
		s.unretireLocked(id)
		s.retired[id] = s.ring.PushBack(id)
	}
	for s.ring.Len() > MaxRetired {
		el := s.ring.Front()
		old := el.Value.(string)
		s.mu.Unlock()
		s.forget(old, func() bool { return s.retired[old] == el })
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// forget is the one way a finished agent leaves this server — evicted
// from the retirement ring or disposed by an operator: its record, its
// dedup watermark and its journal entry go together. The journal stripe
// of id is taken before still is asked, under s.mu, whether id is still
// the one to forget (and no handoff of it is pending), and is held
// through the trailing drop: an agent re-arriving under the same id has
// either replaced it before the check, so nothing is forgotten, or
// journals itself after the drop. It reports whether id was forgotten.
func (s *Server) forget(id string, still func() bool) bool {
	st := s.jr.stripe(id)
	st.Lock()
	defer st.Unlock()
	s.mu.Lock()
	if _, busy := s.pending[id]; busy || !still() {
		s.mu.Unlock()
		return false
	}
	delete(s.parked, s.agents[id])
	delete(s.agents, id)
	delete(s.accepted, id)
	s.unretireLocked(id)
	s.mu.Unlock()
	if err := s.jr.dropLocked(id); err != nil {
		s.logf("mas %s: dropping journal entry for %s: %v", s.cfg.Addr, id, err)
	}
	return true
}

// DefaultUpkeepInterval is how often a daemon runs Upkeep: masd's
// -retry-interval default, and the gateway's interval.
const DefaultUpkeepInterval = 30 * time.Second

// Upkeep is one round of a server's periodic duties: it
// retries parked transfers and compacts the journal's WAL once more
// than rms.DefaultCompactGarbage of it is superseded (the WAL also
// compacts at segment rotation; this is the backstop for an idle
// host). It returns the retries started.
func (s *Server) Upkeep(ctx context.Context) int {
	n := s.RetryParked(ctx)
	if n > 0 {
		s.logf("mas %s: retrying %d parked transfer(s)", s.cfg.Addr, n)
	}
	if w := rms.WALOf(s.cfg.Journal); w != nil && w.Garbage() > rms.DefaultCompactGarbage {
		if err := w.Compact(); err != nil {
			s.logf("mas %s: compacting journal: %v", s.cfg.Addr, err)
		}
	}
	return n
}

// RunUpkeep runs Upkeep every interval until ctx ends.
func (s *Server) RunUpkeep(ctx context.Context, every time.Duration) {
	Every(ctx, every, func(ctx context.Context) { s.Upkeep(ctx) })
}

// Every runs fn every interval until ctx ends: a daemon's one periodic
// loop.
func Every(ctx context.Context, every time.Duration, fn func(context.Context)) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			fn(ctx)
		}
	}
}

// RetryParked re-attempts the pending transfer of every parked agent —
// called after a partition heals (Upkeep does it on a timer). It
// returns the number of retries started. Receiver-side dedup makes a
// retry of an already-accepted handoff idempotent.
func (s *Server) RetryParked(ctx context.Context) int {
	type retry struct {
		rec          *record
		target, kind string
	}
	s.mu.Lock()
	var todo []retry
	for rec := range s.parked {
		rec.state = StateRunning
		todo = append(todo, retry{rec, rec.parkTarget, rec.parkKind})
	}
	clear(s.parked)
	s.mu.Unlock()
	ctx = context.WithoutCancel(ctx)
	for _, r := range todo {
		r := r
		s.spawn(func() { s.shipAgent(ctx, r.rec, r.target, r.kind) })
	}
	return len(todo)
}

// Resume re-hydrates journaled agents after a crash/restart and sets
// their journeys moving again: runnable agents re-enter the execution
// loop, suspended or parked transfers are retried (receiver-side dedup
// makes the retry exactly-once), terminal agents are delivered home,
// and delivered entries are kept as dedup bookkeeping only. It returns
// the number of journeys set in motion.
//
// Recovery restarts an interrupted hop from its last journaled snapshot
// (or, for a hop interrupted before its first suspension point here,
// from the sender's), so service calls within that hop may re-execute
// (at-least-once); the agent itself is delivered exactly once.
func (s *Server) Resume(ctx context.Context) (int, error) {
	entries, err := s.jr.loadAll()
	if err != nil {
		return 0, err
	}
	ctx = context.WithoutCancel(ctx)
	resumed := 0
	for _, e := range entries {
		// The watermark first: retried handoffs the dead server had
		// accepted stay idempotent.
		id := e.Image.AgentID
		s.mergeWatermark(id, e.Watermark)
		switch {
		case e.State == StateDeparted && e.Image.Home == s.cfg.Addr:
			// A journey away from home: its forwarding pointer comes
			// back, not retired, until the homecoming replaces it.
			s.mu.Lock()
			if _, exists := s.agents[id]; !exists {
				s.agents[id] = &record{id: id, home: e.Image.Home, codeID: e.Image.CodeID,
					owner: e.Image.Owner, tenant: e.Tenant, state: StateDeparted, movedTo: e.Target}
			}
			s.mu.Unlock()
		case e.tombstone():
			// Dedup bookkeeping only: retire it again, in record-id
			// order, so the cap holds.
			s.enring(id, nil)
		case s.resumeEntry(ctx, e, true):
			resumed++
		}
	}
	if resumed > 0 {
		s.logf("mas %s: resumed %d journaled agent(s)", s.cfg.Addr, resumed)
	}
	return resumed, nil
}

// mergeWatermark raises the receiver-side dedup watermark for an agent
// id (no-op if the known watermark is already at least wm).
func (s *Server) mergeWatermark(id string, wm int) {
	if wm < 0 {
		return
	}
	s.mu.Lock()
	if cur, ok := s.accepted[id]; !ok || wm > cur {
		s.accepted[id] = wm
	}
	s.mu.Unlock()
}

// resumeEntry re-hydrates one non-tombstone journal entry and sets its
// journey moving again; ctx must already be detached from cancellation.
// journaled says e needs no journal write here (this server's journal
// holds it), so a transfer it names ships e's
// image as it is. Returns false when the entry is skipped (undecodable,
// or the agent is already resident — it arrived by transfer while we
// were recovering).
func (s *Server) resumeEntry(ctx context.Context, e *journalEntry, journaled bool) bool {
	rec, err := s.decodeAgent(&e.Image)
	if err != nil {
		s.logf("mas %s: journal entry %s: %v", s.cfg.Addr, e.Image.AgentID, err)
		return false
	}
	// Every resumed entry sets off again (below).
	rec.tenant, rec.state, rec.lastErr = e.Tenant, StateRunning, e.LastErr
	vm := rec.vm
	s.mu.Lock()
	if _, exists := s.agents[rec.id]; exists {
		s.mu.Unlock()
		return false
	}
	s.putLocked(rec)
	s.mu.Unlock()

	switch {
	case e.Target != "":
		// A transfer was in flight (or parked) when the server died:
		// finish the handoff. The receiver dedups if the old server's
		// send had actually landed — so it may have, and is never given up.
		rec.mayHaveLanded = true
		if journaled {
			rec.journaledTo, rec.journaledKind = e.Target, e.Kind
		}
		target, kind := e.Target, e.Kind
		if kind == "" {
			kind = KindMigrate
		}
		s.spawn(func() { s.shipAgent(ctx, rec, target, kind) })
	case vm.Status() == mavm.StatusMigrating:
		s.spawn(func() { s.shipAgent(ctx, rec, vm.MigrateTarget(), KindMigrate) })
	case vm.Status() == mavm.StatusDone:
		s.spawn(func() { _ = s.finishAgent(ctx, rec, KindDone) })
	case vm.Status() == mavm.StatusFailed:
		s.spawn(func() { _ = s.finishAgent(ctx, rec, KindFailed) })
	default: // mavm.StatusReady: mid-itinerary, re-enter the loop
		s.startLoop(ctx, rec, nil)
	}
	return true
}

// AdoptJournal folds a dead member's replicated agent journal into
// this server — the warm-standby promotion path (DESIGN.md §10).
// Entries homed at the dead member are re-homed here (the standby now
// answers for it), dedup watermarks merge by max so handoffs the dead
// member had accepted stay idempotent when senders re-route their
// retries, and live agents resume their journeys exactly as a restart
// over the dead member's own store would. Agents already resident
// locally (they migrated here before the crash) are left untouched.
// Adopted entries are persisted to this server's own journal first, so
// a crash of the standby mid-promotion loses nothing that had been
// replicated. Returns the ids of the agents set in motion, for the
// location-directory re-point.
func (s *Server) AdoptJournal(ctx context.Context, from string, store rms.Store) ([]string, error) {
	jr, err := openJournal(store)
	if err != nil {
		return nil, fmt.Errorf("mas: opening %s's journal replica: %w", from, err)
	}
	entries, err := jr.loadAll()
	if err != nil {
		return nil, fmt.Errorf("mas: reading %s's journal replica: %w", from, err)
	}
	ctx = context.WithoutCancel(ctx)
	var adopted []string
	for _, e := range entries {
		id := e.Image.AgentID
		if e.Image.Home == from {
			e.Image.Home = s.cfg.Addr
		}
		s.mergeWatermark(id, e.Watermark)
		s.mu.Lock()
		_, resident := s.agents[id]
		s.mu.Unlock()
		if e.tombstone() {
			// Persist the acceptance evidence unless a live local entry
			// would be clobbered by it, and retire it like our own.
			if !resident {
				if err := s.jr.put(e); err != nil {
					s.logf("mas %s: adopting tombstone %s from %s: %v", s.cfg.Addr, id, from, err)
				}
			}
			s.enring(id, nil)
			continue
		}
		if resident {
			continue
		}
		journaled := true
		if err := s.jr.put(e); err != nil {
			// Our own journal is failing; adopt in memory anyway —
			// a running copy beats a stranded journey.
			s.logf("mas %s: journaling adopted agent %s: %v", s.cfg.Addr, id, err)
			journaled = false
		}
		if s.resumeEntry(ctx, e, journaled) {
			adopted = append(adopted, id)
		}
	}
	if len(adopted) > 0 {
		s.logf("mas %s: adopted %d agent(s) from %s", s.cfg.Addr, len(adopted), from)
	}
	return adopted, nil
}

// ResidentCount returns the number of agents currently held by this
// server (running or parked) — the queue-depth half of the cluster
// load signal, and the quantity a draining gateway waits on.
func (s *Server) ResidentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rec := range s.agents {
		if rec.state == StateRunning || rec.state == StateParked {
			n++
		}
	}
	return n
}

// ResidentsByTenant breaks ResidentCount down by tenant label (the
// default account renders as tenant.DefaultLabel) — the residency half
// of the per-tenant quota signal gossiped on cluster heartbeats. It
// walks the agent table under s.mu, so callers poll it at scrape or
// heartbeat granularity, not on the dispatch path.
func (s *Server) ResidentsByTenant() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64)
	for _, rec := range s.agents {
		if rec.state == StateRunning || rec.state == StateParked {
			out[tenant.Label(rec.tenant)]++
		}
	}
	return out
}

// JournalBytesByTenant breaks the journal's stored bytes down by
// tenant label — the journaled-footprint half of the per-tenant quota
// signal (in memory on a server without a durable journal).
func (s *Server) JournalBytesByTenant() map[string]int64 {
	sums := s.jr.bytesByTenant()
	out := make(map[string]int64, len(sums))
	for t, n := range sums {
		out[tenant.Label(t)] += n
	}
	return out
}

// AgentStates returns a snapshot of known agent ids to states, for
// tests and debugging.
func (s *Server) AgentStates() map[string]AgentState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]AgentState, len(s.agents))
	for id, rec := range s.agents {
		out[id] = rec.state
	}
	return out
}
