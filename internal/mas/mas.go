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
// With Config.Journal set, the server write-ahead-logs every resident
// agent (at its first suspension point here, and at each departure)
// into an rms.Store, transfers become two-phase handoffs deduplicated
// on (agent id, hop counter),
// and a replacement Server over the same store continues interrupted
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
	// Journal, when set, is the write-ahead agent journal: an agent that
	// enters this server — admitted locally or arriving by /atp/transfer,
	// whose handoff is acked only after that write — is journaled at its
	// first suspension point (enter) and again at each later departure,
	// and a replacement Server over the same store re-hydrates them via
	// Resume. An agent that finishes at home inside its first slice is
	// never journaled: OnAgentHome taking the result is the durable
	// hand-over, exactly as for a KindDone homecoming — so with a Journal
	// but no durable home-side store (a gateway without a mailbox keeps
	// results in Documents only) such a result is as durable as
	// Documents is.
	// With a journal, persistently failed transfers park the
	// agent for RetryParked instead of failing it home, and /atp/transfer
	// becomes a two-phase handoff (the journal write is the commit, the
	// OK response the ack; duplicates dedup on agent id + hop counter).
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

	// journaledTo/journaledKind: the pending transfer the agent's journal
	// entry names ("" = none, or no entry). An agent runs no further here
	// once its entry names a destination, so a departure to exactly that
	// destination need not write the same snapshot again (shipAgent).
	// Owned, like vm, by whichever goroutine is driving the agent.
	journaledTo   string
	journaledKind string

	// progBytes caches the marshaled (immutable) program, shared by
	// every journal write and outbound transfer of this agent.
	progBytes []byte

	// execMu serialises VM execution with clone/status access.
	execMu sync.Mutex
}

// Server is one mobile agent server instance.
type Server struct {
	cfg  Config
	mux  *transport.Mux
	jr   *journal    // nil when cfg.Journal is unset
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

	mu       sync.Mutex
	agents   map[string]*record
	flavours map[string]atp.Codec     // destination addr -> codec cache
	accepted map[string]int           // agent id -> highest sent-hop accepted (transfer dedup)
	pending  map[string]pendingAccept // agent id -> handoff mid-commit
	cloneSeq int
	logs     []string // ring of recent agent log lines
}

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
// remembers the watermark to restore if the commit fails; a sender
// writing its own departure tombstone (sendAgent) carries done, closed
// when that write has landed.
type pendingAccept struct {
	prevWM  int
	hadPrev bool
	done    chan struct{}
}

// maxLogLines bounds the per-server agent log ring.
const maxLogLines = 512

// transferAttempts is how many times a transfer is retried before the
// agent is considered stuck.
const transferAttempts = 3

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
	s := &Server{
		cfg:      cfg,
		maxHops:  defaultMaxHops,
		agents:   make(map[string]*record),
		flavours: make(map[string]atp.Codec),
		accepted: make(map[string]int),
		pending:  make(map[string]pendingAccept),
	}
	if cfg.Journal != nil {
		jr, err := openJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		s.jr = jr
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

// unmarshalProgram deserialises agent bytecode through the program
// cache.
func (s *Server) unmarshalProgram(b []byte) (*mavm.Program, error) {
	prog, _, err := s.cfg.Programs.UnmarshalBytes(b)
	return prog, err
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
	s.agents[rec.id] = rec
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
			s.journalFinish(rec, StateDisposed)
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
	s.journalFinish(rec, StateDelivered)
	s.notifyMove(ctx, AgentMove{
		AgentID: rec.id, Addr: s.cfg.Addr, Home: rec.home,
		Seq: 2*rec.vm.Hops + 3, Terminal: true,
	})
	return nil
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

// programBytes returns the agent's marshaled program, encoding it on
// first use (the program never changes after admission).
func (s *Server) programBytes(rec *record) ([]byte, error) {
	s.mu.Lock()
	pb := rec.progBytes
	s.mu.Unlock()
	if pb != nil {
		return pb, nil
	}
	pb, err := mavm.MarshalProgram(rec.vm.Program())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	rec.progBytes = pb
	s.mu.Unlock()
	return pb, nil
}

func (s *Server) encodeImage(rec *record) (*atp.Image, error) {
	prog, err := s.programBytes(rec)
	if err != nil {
		return nil, err
	}
	state, err := mavm.MarshalState(rec.vm)
	if err != nil {
		return nil, err
	}
	return &atp.Image{
		AgentID: rec.id,
		Home:    rec.home,
		CodeID:  rec.codeID,
		Owner:   rec.owner,
		Program: prog,
		State:   state,
	}, nil
}

// shipAgent is the two-phase handoff's sending side: the suspended
// image (and its destination) is made durable, then sendAgent puts it
// on the wire. An agent whose journal entry already says exactly that —
// it was journaled with this destination when it entered, or it is a
// parked transfer being retried — goes to sendAgent directly.
func (s *Server) shipAgent(ctx context.Context, rec *record, target, kind string) {
	if rec.journaledTo != target || rec.journaledKind != kind {
		if err := s.journalPut(rec, target, kind); err != nil {
			// The WAL write must precede the wire: sending an unjournaled
			// image risks losing the only copy if the ack is missed and we
			// crash. Park instead; RetryParked re-attempts the journal too.
			s.logf("mas %s: journaling departure of %s: %v", s.cfg.Addr, rec.id, err)
			s.setErr(rec, "journaling departure: "+err.Error())
			s.mu.Lock()
			rec.state = StateParked
			rec.parkTarget, rec.parkKind = target, kind
			s.mu.Unlock()
			s.mParked.Inc()
			return
		}
	}
	s.sendAgent(ctx, rec, target, kind)
}

// sendAgent encodes the agent for the destination's flavour and
// transfers it, with retries. With a journal the receiver's OK is the
// commit-ack that releases the entry, and a persistent failure parks
// the agent for RetryParked / Resume instead of losing it. Without a
// journal the legacy best-effort path applies: a failed migration is
// failed home, and if even home is unreachable the record strands.
func (s *Server) sendAgent(ctx context.Context, rec *record, target, kind string) {
	sentHops := rec.vm.Hops // as serialised into the departing image
	im, err := s.encodeImage(rec)
	if err != nil {
		s.setErr(rec, "encoding agent: "+err.Error())
		s.setState(rec, StateStranded, "")
		return
	}
	// Mark the departure BEFORE the image leaves. Once the receiver
	// acks, it starts the agent immediately; a fast hop (program-cache
	// hit, local service, migrate home) can bring the agent BACK here
	// before our RoundTrip call even returns. If this record still read
	// StateRunning at that moment, the homecoming transfer would bounce
	// with a permanent conflict and strand the agent. Every failure
	// path below overwrites the state (parked / failed home / local
	// delivery / stranded), so a failed send never stays "departed".
	s.setState(rec, StateDeparted, target)
	shipStart := time.Now()
	if err := s.transferImage(ctx, im, target, kind, rec.tenant); err != nil {
		s.mTransferFail.Inc()
		s.logf("mas %s: transfer of %s to %s failed: %v", s.cfg.Addr, rec.id, target, err)
		s.setErr(rec, fmt.Sprintf("transfer to %s: %v", target, err))
		if s.jr != nil {
			// The journal holds the suspended image: park the agent and
			// let RetryParked (or a restart's Resume) finish the handoff
			// once the destination is reachable again.
			s.mu.Lock()
			rec.state = StateParked
			rec.parkTarget, rec.parkKind = target, kind
			s.mu.Unlock()
			s.mParked.Inc()
			s.logf("mas %s: parked agent %s (%s -> %s)", s.cfg.Addr, rec.id, kind, target)
			return
		}
		if kind == KindMigrate && rec.home != s.cfg.Addr && target != rec.home {
			// Return the failed journey home so the user learns about it.
			if err2 := s.transferImage(ctx, im, rec.home, KindFailed, rec.tenant); err2 == nil {
				s.setState(rec, StateDeparted, rec.home)
				return
			}
		}
		if (kind == KindFailed || kind == KindDone || kind == KindMigrate) && rec.home == s.cfg.Addr {
			// Home is here: deliver what we have instead of stranding.
			_ = s.deliverLocal(ctx, rec, KindFailed)
			return
		}
		s.setState(rec, StateStranded, "")
		return
	}
	s.mTransferUs.Observe(time.Since(shipStart))
	s.mTransferOut.Inc()
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
	if s.jr == nil {
		s.mu.Unlock()
	} else {
		// Reserve the id while the tombstone is written, so a re-arrival
		// racing this block cannot interleave its journal write with
		// ours. It waits in reserveHandoff for done rather than being
		// refused: a journey that laps its sender (a one-bank itinerary
		// is back within a millisecond) would lose three zero-delay
		// retries to one fsync and park for a whole retry interval.
		done := make(chan struct{})
		s.pending[rec.id] = pendingAccept{done: done}
		s.mu.Unlock()
		s.journalFinish(rec, StateDeparted)
		s.mu.Lock()
		delete(s.pending, rec.id)
		s.mu.Unlock()
		close(done)
	}
	s.logf("mas %s: agent %s %s -> %s", s.cfg.Addr, rec.id, kind, target)
}

// transferImage sends an encoded image to target with flavour
// adaptation and bounded retries. The tenant account rides as a
// transport header rather than inside the image: the ATP codecs
// (aglets binary, voyager XML) have a fixed field set that foreign
// hosts parse strictly, so the envelope cannot grow without breaking
// wire compatibility — and a header is exactly the out-of-band routing
// metadata layer this belongs to.
func (s *Server) transferImage(ctx context.Context, im *atp.Image, target, kind, tenantID string) error {
	codec, err := s.codecFor(ctx, target)
	if err != nil {
		return err
	}
	body, err := codec.Encode(im)
	if err != nil {
		return err
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
			continue
		}
		if resp.IsOK() {
			return nil
		}
		lastErr = resp.Err()
		// Conflict (duplicate id) and client errors will not improve
		// with retries.
		if resp.Status != transport.StatusUnavailable {
			break
		}
	}
	return lastErr
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
	// A program seen before (the same agent hopping through, a retry of
	// this handoff, clones, or any agent of the same application) skips
	// deserialisation and bytecode re-validation via the program cache.
	prog, err := s.unmarshalProgram(im.Program)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "agent program: %v", err)
	}
	vm, err := mavm.UnmarshalState(prog, im.State)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "agent state: %v", err)
	}
	if vm.AgentID != im.AgentID {
		return transport.Errorf(transport.StatusBadRequest,
			"agent id mismatch: envelope %q, state %q", im.AgentID, vm.AgentID)
	}
	kind := req.GetHeader("kind")
	if kind == "" {
		kind = KindMigrate
	}
	// Billing account travels out-of-band (see transferImage); an absent
	// header is the single-tenant default.
	tenantID := req.GetHeader("tenant")
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
		rec := &record{
			id: im.AgentID, home: im.Home, codeID: im.CodeID, owner: im.Owner,
			tenant: tenantID, vm: vm, state: StateRunning,
		}
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
		rec := &record{
			id: im.AgentID, home: im.Home, codeID: im.CodeID, owner: im.Owner,
			tenant: tenantID, vm: vm, state: StateDelivered, lastErr: vm.FailMsg(),
		}
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
		s.journalFinish(rec, StateDelivered)
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
// bookkeeping (sendAgent writing the tombstone of the hop the agent
// has just come back from) is waited for instead: that write cannot
// fail the arrival, only delay it. The watermark is advanced here (not
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
	s.pending[rec.id] = pendingAccept{prevWM: prevWM, hadPrev: hadPrev}
	s.accepted[rec.id] = sentHop
	s.agents[rec.id] = rec
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
// for operator visibility, e.g. a stranded delivery).
func (s *Server) abortHandoff(rec *record, dropRecord bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pending[rec.id]; ok {
		if p.hadPrev {
			s.accepted[rec.id] = p.prevWM
		} else {
			delete(s.accepted, rec.id)
		}
	}
	delete(s.pending, rec.id)
	if dropRecord {
		delete(s.agents, rec.id)
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
	vmStatus := rec.vm.Status().String()
	hops, steps := rec.vm.Hops, rec.vm.Steps
	rec.execMu.Unlock()

	n := kxml.NewElement("agent-status")
	n.SetAttr("id", rec.id)
	n.SetAttr("host", s.cfg.Addr)
	n.SetAttr("state", string(state))
	n.SetAttr("vm-status", vmStatus)
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
	s.agents[newID] = cloneRec
	s.mu.Unlock()
	if err := s.journalPut(cloneRec, "", ""); err != nil {
		// A clone has no sender holding a backup copy: admitting it
		// unjournaled would let a crash erase it silently. Refuse.
		s.mu.Lock()
		delete(s.agents, newID)
		s.mu.Unlock()
		return transport.Errorf(transport.StatusServerError, "journaling clone %s: %v", newID, err)
	}
	// A clone of a migrating agent continues its journey; a running
	// clone starts executing here.
	if cloneVM.Status() == mavm.StatusMigrating {
		s.spawn(func() { s.shipAgent(context.WithoutCancel(ctx), cloneRec, cloneVM.MigrateTarget(), KindMigrate) })
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
	switch rec.state {
	case StateRunning:
		rec.disposeReq = true
		s.mu.Unlock()
		return transport.OKText("dispose scheduled")
	case StateDeparted:
		movedTo := rec.movedTo
		s.mu.Unlock()
		resp := transport.Errorf(transport.StatusGone, "agent %q moved to %s", id, movedTo)
		resp.SetHeader("moved-to", movedTo)
		return resp
	case StateDelivered, StateDisposed, StateStranded, StateParked:
		// Dropping bookkeeping for a finished (or hopelessly parked)
		// agent is idempotent. An explicit operator dispose forgets the
		// journal entry outright — watermark included. The journal I/O
		// happens after the lock is released.
		rec.state = StateDisposed
		s.mu.Unlock()
		s.journalDrop(id)
		return transport.OKText("disposed")
	default:
		state := rec.state
		s.mu.Unlock()
		return transport.Errorf(transport.StatusConflict, "agent %q is %s", id, state)
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

// journalPut snapshots rec into the journal (no-op without one).
// target/kind record a pending transfer destination. Callers must not
// be racing the VM (journal only at slice boundaries: the first
// suspension point after the agent entered, departure).
func (s *Server) journalPut(rec *record, target, kind string) error {
	if s.jr == nil {
		return nil
	}
	prog, err := s.programBytes(rec)
	if err != nil {
		return err
	}
	state, err := mavm.MarshalState(rec.vm)
	if err != nil {
		return err
	}
	s.mu.Lock()
	wm, ok := s.accepted[rec.id]
	if !ok {
		wm = -1
	}
	e := &journalEntry{
		ID: rec.id, Home: rec.home, CodeID: rec.codeID, Owner: rec.owner,
		State: rec.state, Target: target, Kind: kind, LastErr: rec.lastErr,
		Tenant: rec.tenant, Watermark: wm, Program: prog, VMState: state,
	}
	s.mu.Unlock()
	if _, err = s.jr.put(e); err != nil { // full entries never trigger tombstone eviction
		return err
	}
	rec.journaledTo, rec.journaledKind = target, kind
	return nil
}

// journalDrop removes an agent's journal entry (no-op without one).
func (s *Server) journalDrop(id string) {
	if s.jr == nil {
		return
	}
	if err := s.jr.drop(id); err != nil {
		s.logf("mas %s: dropping journal entry for %s: %v", s.cfg.Addr, id, err)
	}
}

// journalFinish retires an agent's journal entry once it is no longer
// resident (departed onward, delivered, disposed). If the agent was
// accepted over /atp/transfer, the entry is replaced by a slim dedup
// tombstone rather than deleted: the journaled watermark must outlive
// the resident copy, or a crash here followed by a sender's retry of
// the original handoff would land a second copy of an agent we
// already forwarded. Locally admitted agents (no watermark) are
// simply dropped.
func (s *Server) journalFinish(rec *record, st AgentState) {
	if s.jr == nil {
		return
	}
	s.mu.Lock()
	wm, ok := s.accepted[rec.id]
	s.mu.Unlock()
	if !ok {
		s.journalDrop(rec.id)
		return
	}
	e := &journalEntry{
		ID: rec.id, Home: rec.home, CodeID: rec.codeID, Owner: rec.owner,
		Tenant: rec.tenant, State: st, Watermark: wm,
	}
	evicted, err := s.jr.put(e)
	if err != nil {
		s.logf("mas %s: writing tombstone for %s: %v", s.cfg.Addr, rec.id, err)
	}
	if evicted != "" {
		s.forgetHandoff(evicted)
	}
}

// forgetHandoff prunes in-memory dedup state for an agent whose
// tombstone was evicted from the journal, keeping the accepted map
// (and terminal agent records) bounded in step with the store.
func (s *Server) forgetHandoff(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.accepted, id)
	if rec, ok := s.agents[id]; ok {
		switch rec.state {
		case StateDeparted, StateDelivered, StateDisposed:
			delete(s.agents, id)
		}
	}
}

// RetryParked re-attempts the pending transfer of every parked agent —
// called after a partition heals (cmd/masd does it on a timer). It
// returns the number of retries started. Receiver-side dedup makes a
// retry of an already-accepted handoff idempotent.
func (s *Server) RetryParked(ctx context.Context) int {
	type retry struct {
		rec          *record
		target, kind string
	}
	s.mu.Lock()
	var todo []retry
	for _, rec := range s.agents {
		if rec.state == StateParked {
			rec.state = StateRunning
			todo = append(todo, retry{rec, rec.parkTarget, rec.parkKind})
		}
	}
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
	if s.jr == nil {
		return 0, errors.New("mas: no journal configured")
	}
	entries, err := s.jr.loadAll()
	if err != nil {
		return 0, err
	}
	ctx = context.WithoutCancel(ctx)
	resumed := 0
	for _, e := range entries {
		if e.tombstone() {
			// Dedup bookkeeping only: restore the watermark so retried
			// handoffs the dead server had accepted stay idempotent.
			s.mergeWatermark(e.ID, e.Watermark)
			continue
		}
		if s.resumeEntry(ctx, e) {
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
// Returns false when the entry is skipped (undecodable, or the agent is
// already resident — it arrived by transfer while we were recovering).
func (s *Server) resumeEntry(ctx context.Context, e *journalEntry) bool {
	prog, err := s.unmarshalProgram(e.Program)
	if err != nil {
		s.logf("mas %s: journal entry %s: bad program: %v", s.cfg.Addr, e.ID, err)
		return false
	}
	vm, err := mavm.UnmarshalState(prog, e.VMState)
	if err != nil || vm.AgentID != e.ID {
		s.logf("mas %s: journal entry %s: bad state: %v", s.cfg.Addr, e.ID, err)
		return false
	}
	rec := &record{
		id: e.ID, home: e.Home, codeID: e.CodeID, owner: e.Owner,
		tenant: e.Tenant, vm: vm, state: e.State, lastErr: e.LastErr,
	}
	s.mu.Lock()
	if _, exists := s.agents[e.ID]; exists {
		s.mu.Unlock()
		return false
	}
	s.agents[e.ID] = rec
	if e.Watermark >= 0 {
		if wm, ok := s.accepted[e.ID]; !ok || e.Watermark > wm {
			s.accepted[e.ID] = e.Watermark
		}
	}
	s.mu.Unlock()

	switch {
	case e.Target != "":
		// A transfer was in flight (or parked) when the server died:
		// finish the handoff. The receiver dedups if the old server's
		// send had actually landed.
		rec.state = StateRunning
		target, kind := e.Target, e.Kind
		if kind == "" {
			kind = KindMigrate
		}
		s.spawn(func() { s.shipAgent(ctx, rec, target, kind) })
	case vm.Status() == mavm.StatusMigrating:
		rec.state = StateRunning
		s.spawn(func() { s.shipAgent(ctx, rec, vm.MigrateTarget(), KindMigrate) })
	case vm.Status() == mavm.StatusDone:
		rec.state = StateRunning
		s.spawn(func() { _ = s.finishAgent(ctx, rec, KindDone) })
	case vm.Status() == mavm.StatusFailed:
		rec.state = StateRunning
		s.spawn(func() { _ = s.finishAgent(ctx, rec, KindFailed) })
	default: // mavm.StatusReady: mid-itinerary, re-enter the loop
		rec.state = StateRunning
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
		if e.Home == from {
			e.Home = s.cfg.Addr
		}
		s.mu.Lock()
		_, resident := s.agents[e.ID]
		s.mu.Unlock()
		if e.tombstone() {
			s.mergeWatermark(e.ID, e.Watermark)
			// Persist the acceptance evidence unless a live local entry
			// would be clobbered by it.
			if !resident && s.jr != nil {
				if evicted, err := s.jr.put(e); err != nil {
					s.logf("mas %s: adopting tombstone %s from %s: %v", s.cfg.Addr, e.ID, from, err)
				} else if evicted != "" {
					s.forgetHandoff(evicted)
				}
			}
			continue
		}
		if resident {
			s.mergeWatermark(e.ID, e.Watermark)
			continue
		}
		if s.jr != nil {
			if _, err := s.jr.put(e); err != nil {
				// Our own journal is failing; adopt in memory anyway —
				// a running copy beats a stranded journey.
				s.logf("mas %s: journaling adopted agent %s: %v", s.cfg.Addr, e.ID, err)
			}
		}
		if s.resumeEntry(ctx, e) {
			adopted = append(adopted, e.ID)
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
// tenant label — the durable-footprint half of the per-tenant quota
// signal. Nil without a journal.
func (s *Server) JournalBytesByTenant() map[string]int64 {
	if s.jr == nil {
		return nil
	}
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
