// Package gateway implements the PDAgent Gateway: the middle-tier
// "communication and operation bridge" of the paper (Figures 4–6).
//
// The gateway exposes the handheld-facing endpoints (all under
// /pdagent/) and embeds a home mobile-agent server that creates,
// dispatches and receives agents. Its internal components follow the
// paper's architecture:
//
//   - Agent Dispatch Handler — receives the Packed Information,
//     verifies the MD5 digest and decrypts it (Figure 7), and splits it
//     into modules;
//   - XML Writer — parses the XML document and extracts the user
//     requirement parameters;
//   - Agent Creator — validates the dispatch key against the
//     subscription secret and "generates mobile agent classes", i.e.
//     compiles the MAScript source for the local MAS flavour;
//   - Document Creator / File Directory — materialises result
//     documents in an allocated storage space (an rms.Store); the
//     request's parameters go to the agent directly (pi.Params), so no
//     request document is stored;
//   - Subscription service — serves the catalogue and issues code
//     packages with per-subscription secrets (§3.1);
//   - Directory service — serves the gateway address list (§3.5).
//
// Scaling design (DESIGN.md §5): all mutable gateway state lives in a
// lock-striped Registry, so subscribe/dispatch/result/status requests
// for unrelated agents never contend on a shared mutex; outbound work
// — chasing an agent's forwarding pointers, management verbs — runs on
// the requesting goroutine under a bounded slot semaphore, so a burst
// of requests cannot fan out unbounded outbound calls.
package gateway

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/cluster"
	"pdagent/internal/kxml"
	"pdagent/internal/mas"
	"pdagent/internal/mavm"
	"pdagent/internal/metrics"
	"pdagent/internal/pisec"
	"pdagent/internal/progcache"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Config configures a Gateway.
type Config struct {
	// Addr is the gateway's address on the transport fabric.
	Addr string
	// KeyPair is the gateway's RSA identity (Figure 7). Required.
	KeyPair *pisec.KeyPair
	// Transport reaches MAS hosts and peer gateways.
	Transport transport.RoundTripper
	// Flavour is the embedded home MAS codec flavour (default
	// "aglets", the paper's choice).
	Flavour string
	// Spawn runs agent loops asynchronously (default `go fn()`; the
	// simulated world passes a serial queue).
	Spawn func(fn func())
	// Peers are other gateway addresses served from /pdagent/gateways
	// (the directory of §3.5). The gateway's own address is always
	// included.
	Peers []string
	// Documents is the File Directory backing store (default: an
	// in-memory rms store). It holds the result documents of the
	// newest mas.MaxRetired finished journeys; an older one is deleted
	// with its registry entry.
	Documents rms.Store
	// Journal is the embedded home MAS's write-ahead agent journal (see
	// mas.Config.Journal; default in memory). A durable one lets
	// journeys survive a gateway restart: the embedder runs Resume
	// after it. A failed transfer parks its agent either way, so the
	// embedder runs Upkeep (a simulation calls RetryParked in virtual
	// time). With Repl it streams to the standby, durable or
	// not.
	Journal rms.Store
	// FuelSlice overrides the MAS execution slice.
	FuelSlice uint64
	// Cluster, when set, federates this gateway into a clustered middle
	// tier (DESIGN.md §6): the node's live membership replaces the
	// static §3.5 list, dispatches whose consistent-hash home is
	// another member are forwarded there, agent locations are published
	// to the replicated directory, and results of forwarded dispatches
	// are relayed back to the edge member the device talks to. The
	// embedder builds the node (over the same transport) and drives its
	// heartbeats — Node.Start in daemons, manual Tick in simulations.
	Cluster *cluster.Node
	// Repl, when set alongside Cluster, is this member's warm-standby
	// replication peer (DESIGN.md §10): the gateway mounts its
	// /cluster/repl/* endpoints and streams every store it keeps — the
	// agent journal and the mailbox store, in memory or durable, each
	// of which must implement rms.Tapped — so a ring successor holds a
	// live replica and promotes (PromoteOver) when this member dies.
	// The embedder builds the peer wired to the same cluster node
	// (identity stamping, fencing), runs its flush loop (Peer.Start; a
	// simulation calls Flush from its own tick) and calls PromoteOver
	// for each member the node evicts.
	Repl *repl.Peer
	// Mailbox configures the disconnection-tolerant device sessions of
	// DESIGN.md §7 (nil = in-memory store, defaults): every device gets
	// a quota-bounded mailbox into which result documents, status
	// changes and management notifications are enqueued the moment they
	// happen, served through /pdagent/mailbox/poll (fetch+ack with
	// resumable cursors, long-polling when the device asks to wait).
	// Back it with a persistent store and mailboxes survive gateway
	// crashes like the agent journal does.
	Mailbox *MailboxConfig
	// OutboundWorkers bounds concurrent outbound calls — status chasing
	// and management verbs (default 16).
	OutboundWorkers int
	// Logf, when set, receives diagnostics.
	Logf func(format string, args ...any)
	// ShedInFlight is the in-flight watermark of admission control
	// (DESIGN.md §11): while the registry holds at least this many
	// dispatched-but-unfinished agents, an authenticated device dispatch
	// whose tenant is at or over its weighted share of the watermark is
	// refused with 503 and a Retry-After. 0 never sheds.
	ShedInFlight int
	// Tenants are the accounts of the multi-tenant control plane
	// (DESIGN.md §12): subscriptions bind to them, device dispatches pass
	// their rate/quota admission (refusals answer 429 with a Retry-After,
	// distinct from the 503 of a shed), a shed spares tenants under their
	// weighted share of the in-flight watermark, and per-tenant usage is
	// gossiped on cluster heartbeats so quotas hold cluster-wide. Nil is
	// an empty registry: every subscription belongs to the implicit,
	// unlimited default account, which passes the same admission.
	Tenants *tenant.Registry
}

// defaultOutboundWorkers bounds outbound concurrency when the config
// does not say otherwise.
const defaultOutboundWorkers = 16

// maxDispatchBody bounds a device upload. A catalogue PI packs to a few
// KiB; transport's own read limit is 64 MiB, all of which would be MD5'd
// and decrypted before the sender has proven anything.
const maxDispatchBody = 1 << 20

// Gateway is one gateway instance.
type Gateway struct {
	cfg   Config
	mas   *mas.Server
	mux   *transport.Mux
	reg   *Registry
	out   *outbound
	progs *progcache.Cache
	hub   *push.Hub
	// draining refuses new dispatches during graceful shutdown.
	draining atomic.Bool
	// relays counts result relays handed to Spawn and not finished yet;
	// Drain waits for them as it does for resident agents.
	relays atomic.Int64
	// Mailbox entries handed to devices, by the answer that carried them:
	// a dispatch's, a read that waited, a read that did not.
	mailDispatch, mailPoll, mailFetch atomic.Uint64
	// Migration-pull herd protection (see pullMailboxFrom): per-device
	// singleflight plus a global concurrency bound.
	mbPullMu       sync.Mutex
	mbPullInflight map[string]chan struct{}
	mbPulls        *outbound
	mbPullStarted  atomic.Uint64
	mbPullShared   atomic.Uint64
	// admission is the rate/quota/weighted-fair layer (tenancy.go) over
	// Config.Tenants and the registry's in-flight ledger.
	admission *tenant.Admission
	// Observability (observe.go). Counter and histogram handles live
	// here so hot paths touch only atomics; gauges are registered as
	// functions and cost nothing between scrapes.
	metrics         *metrics.Registry
	trace           *metrics.TraceRing
	log             *metrics.Logger
	mDispatchUs     *metrics.Histogram
	mMailboxUs      *metrics.Histogram
	mDispatched     *metrics.Counter
	mDispatchErr    *metrics.Counter
	mForwarded      *metrics.Counter
	mResults        *metrics.Counter
	mRelayed        *metrics.Counter
	mAdopted        *metrics.Counter
	mRefused        *metrics.CounterVec
	mRefusedCode    *metrics.Counter
	mRefusedAuth    *metrics.Counter
	mRefusedShed    *metrics.Counter
	mFramesFlate    *metrics.Counter
	mFramesDict     *metrics.Counter
	mTenantDispatch *metrics.CounterVec
	mTenantShed     *metrics.CounterVec
	mTenantQuota    *metrics.CounterVec
}

// New creates a gateway and its embedded home MAS.
func New(cfg Config) (*Gateway, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("gateway: config missing Addr")
	}
	if cfg.KeyPair == nil {
		return nil, fmt.Errorf("gateway: config missing KeyPair")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gateway: config missing Transport")
	}
	// Every gateway keeps an agent journal and device mailboxes; without
	// a store each lives in memory. The copy keeps the caller's config
	// untouched.
	if cfg.Journal == nil {
		cfg.Journal = rms.NewMemStore("journal-"+cfg.Addr, 0)
	}
	mc := *cmp.Or(cfg.Mailbox, &MailboxConfig{})
	if mc.Store == nil {
		mc.Store = rms.NewMemStore("mailbox-"+cfg.Addr, 0)
	}
	cfg.Mailbox = &mc
	if cfg.Repl != nil {
		// A member asked to replicate must be able to: a store without a
		// commit tap would run with no standby copy and no error.
		for _, st := range []rms.Store{cfg.Journal, mc.Store} {
			if _, ok := st.(rms.Tapped); !ok {
				return nil, fmt.Errorf("gateway: config sets Repl but store %q has no commit tap (rms.Tapped)", st.Name())
			}
		}
	}
	if cfg.Flavour == "" {
		cfg.Flavour = "aglets"
	}
	if cfg.Documents == nil {
		cfg.Documents = rms.NewMemStore("gateway-docs", 0)
	}
	if cfg.OutboundWorkers == 0 {
		cfg.OutboundWorkers = defaultOutboundWorkers
	}
	if cfg.Spawn == nil {
		cfg.Spawn = func(fn func()) { go fn() }
	}
	if cfg.Tenants == nil {
		cfg.Tenants = tenant.NewRegistry()
	}
	codec, err := atp.ByName(cfg.Flavour)
	if err != nil {
		return nil, err
	}

	hub, err := push.NewHub(push.Config{
		Store: mc.Store,
		TTL:   mc.TTL,
		Quota: mc.Quota,
		Logf:  cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("gateway: opening mailbox store: %w", err)
	}
	g := &Gateway{
		cfg:            cfg,
		reg:            NewRegistry(cfg.Documents),
		out:            newOutbound(cfg.OutboundWorkers, cfg.Logf),
		progs:          progcache.New(0),
		hub:            hub,
		mbPullInflight: map[string]chan struct{}{},
		mbPulls:        newOutbound(maxConcurrentMailboxPulls, cfg.Logf),
	}
	g.admission = tenant.NewAdmission(cfg.Tenants, g.reg.ledger)
	g.initObserve()
	masCfg := mas.Config{
		Addr:        cfg.Addr,
		Codec:       codec,
		Transport:   cfg.Transport,
		Spawn:       cfg.Spawn,
		FuelSlice:   cfg.FuelSlice,
		Journal:     cfg.Journal,
		Programs:    g.progs,
		OnAgentHome: g.onAgentHome,
		Logf:        cfg.Logf,
		// The embedded MAS shares the gateway's registry and span
		// ring: one scrape, one itinerary.
		Metrics: g.metrics,
		Trace:   g.trace,
	}
	if cfg.Cluster != nil {
		masCfg.OnAgentMove = g.onAgentMove
		cfg.Cluster.SetLoadFunc(g.load)
	}
	masSrv, err := mas.NewServer(masCfg)
	if err != nil {
		return nil, err
	}
	g.mas = masSrv
	// The slow usage halves live in the MAS (table walks) and the
	// mailbox hub; the admission layer consults them only for tenants
	// that actually configured those quotas.
	g.admission.Slow = g.slowUsage
	if cfg.Cluster != nil {
		// Quotas hold cluster-wide: heartbeats gossip this member's
		// per-tenant rows, and admission sums what the rest of the fleet
		// last reported.
		cfg.Cluster.SetTenantUsageFunc(g.tenantUsage)
		g.admission.Remote = cfg.Cluster.RemoteTenantUsage
	}

	m := transport.NewMux()
	// The embedded MAS handles agent transfers addressed to this
	// gateway.
	m.Handle("/atp/", masSrv.Handler())
	m.HandleFunc("/pdagent/ping", g.handlePing)
	m.HandleFunc("/pdagent/catalog", g.handleCatalog)
	m.HandleFunc("/pdagent/subscribe", g.handleSubscribe)
	m.HandleFunc("/pdagent/dispatch", g.handleDispatch)
	m.HandleFunc("/pdagent/result", g.handleResult)
	m.HandleFunc("/pdagent/status", g.handleStatus)
	m.HandleFunc("/pdagent/gateways", g.handleGateways)
	m.HandleFunc("/pdagent/manage/retract", g.handleRetract)
	m.HandleFunc("/pdagent/manage/dispose", g.handleDispose)
	m.HandleFunc("/pdagent/manage/clone", g.handleClone)
	m.Handle("/metrics", g.metrics.Handler())
	m.HandleFunc("/pdagent/trace/", g.handleTrace)
	// One handler, one ack rule; the bare path stays mounted for
	// devices built before every read went to /poll.
	m.HandleFunc("/pdagent/mailbox/poll", g.handleMailbox)
	m.HandleFunc("/pdagent/mailbox", g.handleMailbox)
	if cfg.Cluster != nil {
		// Federation endpoints: the exact paths below are gateway-level
		// (they need registry/MAS access); everything else under
		// /cluster/ (heartbeat, location gossip) goes to the node.
		m.HandleFunc("/cluster/dispatch", g.handleClusterDispatch)
		m.HandleFunc("/cluster/result", g.handleClusterResult)
		m.HandleFunc("/cluster/mailbox/export", g.handleClusterMailboxExport)
		m.HandleFunc("/cluster/mailbox/ack", g.handleClusterMailboxAck)
		if cfg.Repl != nil {
			cfg.Repl.Mount(m)
		}
		m.Handle("/cluster/", cfg.Cluster.Handler())
	}
	g.mux = m
	if cfg.Repl != nil {
		// Attach commit taps to both stores (each was checked to have one
		// on the way in).
		cfg.Repl.Replicate(repl.RoleJournal, cfg.Journal.(rms.Tapped))
		cfg.Repl.Replicate(repl.RoleMailbox, mc.Store.(rms.Tapped))
	}
	return g, nil
}

// Addr returns the gateway's address.
func (g *Gateway) Addr() string { return g.cfg.Addr }

// Handler returns the transport handler for the gateway host.
func (g *Gateway) Handler() transport.Handler { return g.mux }

// MAS exposes the embedded home mobile-agent server (tests, tooling).
func (g *Gateway) MAS() *mas.Server { return g.mas }

// Metrics exposes the member's metric registry (tests, tooling).
func (g *Gateway) Metrics() *metrics.Registry { return g.metrics }

// TraceRing exposes the member's span ring (tests, tooling).
func (g *Gateway) TraceRing() *metrics.TraceRing { return g.trace }

// Registry exposes the gateway's state registry (tests, benchmarks).
func (g *Gateway) Registry() *Registry { return g.reg }

// PublicKey returns the gateway's public key.
func (g *Gateway) PublicKey() *pisec.PublicKey { return g.cfg.KeyPair.Public() }

// Upkeep is one round of the gateway's periodic duties: the embedded
// MAS's (parked-transfer retries, journal compaction) and the mailbox
// TTL sweep. A daemon runs it every mas.DefaultUpkeepInterval
// (mas.Every).
func (g *Gateway) Upkeep(ctx context.Context) {
	g.mas.Upkeep(ctx)
	if n := g.hub.SweepExpired(); n > 0 {
		g.logf("gateway %s: expired %d mailbox entr(ies)", g.cfg.Addr, n)
	}
}

// Resume continues the journeys the embedded MAS's journal kept (see
// mas.Server.Resume) and files the open ones in the registry again, so
// a restarted gateway answers for an agent still away as travelling,
// not as unknown. New agent ids continue past every id the journal and
// the mailboxes remember. It returns the journeys set in motion.
func (g *Gateway) Resume(ctx context.Context) (int, error) {
	n, err := g.mas.Resume(ctx)
	if err != nil {
		return n, err
	}
	skip := g.reg.SkipIDs(g.cfg.Addr)
	g.hub.EventIDs(skip)
	g.mas.Journeys(skip, func(id, codeID, owner, tenant string) {
		g.reg.CreateAgent(id, codeID, owner, tenant, "", "")
	})
	return n, nil
}

// Close wakes parked mailbox long-polls and fails every outbound call
// (chase, management verb, mailbox pull) that is waiting for a slot or
// asked for later; it returns once the calls already running are done.
func (g *Gateway) Close() {
	if g.cfg.Cluster != nil {
		g.cfg.Cluster.Stop()
	}
	// Wake parked mailbox long-polls so devices racing shutdown get an
	// (empty) answer instead of hanging on a dead gateway.
	g.hub.Close()
	g.mbPulls.close()
	g.out.close()
}

// AddCodePackage publishes an application in the subscription
// catalogue. The compilation that validates the package also populates
// the program cache: the compiled program is pinned under the code id,
// so later dispatches of this source hit the cache instead of
// recompiling. Re-registering a code id with new source swaps the pin
// (the old program ages out of the ad-hoc LRU).
func (g *Gateway) AddCodePackage(cp *wire.CodePackage) error {
	if cp.CodeID == "" || cp.Source == "" {
		return fmt.Errorf("gateway: code package needs id and source")
	}
	// Reject packages that do not compile: a broken catalogue entry
	// would otherwise surface only at dispatch time.
	prog, _, err := g.progs.CompileString(cp.Source)
	if err != nil {
		return fmt.Errorf("gateway: package %q does not compile: %w", cp.CodeID, err)
	}
	g.progs.Pin(cp.CodeID, cp.Source, prog)
	g.reg.PutPackage(cp)
	return nil
}

// Programs exposes the gateway's compiled-program cache (tests,
// benchmarks).
func (g *Gateway) Programs() *progcache.Cache { return g.progs }

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// unhealthy reports why this gateway must refuse new dispatches (""
// while healthy). Two conditions flip it:
//
//   - a wedged durable store (fsync failure permanently failed the
//     agent journal or the mailbox store): admitting an agent whose
//     journal write is guaranteed to fail would strand the journey,
//     so the member sheds load with a retryable 503 and lets the
//     fleet route around it — the fsyncgate stance: fail the node,
//     not the write;
//   - a fencing epoch above our own (a standby promoted over this
//     member's state): any admission here could double-deliver.
//
// The wedge is logged once, not per refused request.
func (g *Gateway) unhealthy() string {
	if g.cfg.Cluster != nil && g.cfg.Cluster.Fenced() {
		return "member is fenced (a promoted standby owns its state)"
	}
	for _, s := range []rms.Store{g.cfg.Journal, g.cfg.Mailbox.Store} {
		if err := rms.StoreErr(s); err != nil {
			g.log.Oncef("store-wedge",
				"gateway %s: durable store wedged, refusing dispatches until restart: %v", g.cfg.Addr, err)
			return "durable store wedged: " + err.Error()
		}
	}
	return ""
}

// --- result intake (the agent coming home, §3.3) -----------------------

// onAgentHome takes an agent's results: the result document goes into
// the File Directory and — for a device this member talks to — into
// the owner's mailbox, and only then is the agent marked complete. A
// nil return is what lets the MAS retire the agent (tombstone its
// journal entry, ack its sender, answer the admission that ran it), so
// a document that could not be stored or enqueued is an error: the
// sender keeps its copy and redelivers, or the dispatch fails and the
// device retries its PI.
func (g *Gateway) onAgentHome(ctx context.Context, a *mas.Arrival) error {
	status := "done"
	switch a.Kind {
	case mas.KindFailed:
		status = "failed"
	case mas.KindRetracted:
		status = "retracted"
	}
	rd := &wire.ResultDocument{
		AgentID: a.VM.AgentID,
		CodeID:  a.CodeID,
		Owner:   a.Owner,
		Status:  status,
		Error:   a.VM.FailMsg(),
		Hops:    a.VM.Hops,
		Steps:   a.VM.Steps,
		Results: a.VM.Results,
	}
	doc, err := rd.EncodeXML()
	if err != nil {
		return fmt.Errorf("encoding result for %s: %w", rd.AgentID, err)
	}
	// Federation: a forwarded dispatch's device talks to the edge
	// member it uploaded through — relay the result document there so
	// collection needs no extra cross-member hop (best-effort: the edge
	// fetches on demand otherwise). The device's mailbox lives at the
	// edge too, so the enqueue happens there (in adoptResult); for
	// direct dispatches it happens here. The relay is a round trip to
	// another member and this may be the admission that ran the agent
	// (a zero-hop journey inside the edge's forward), so it leaves under
	// Spawn: a best-effort push must not hold a dispatch's answer, and
	// an edge that hears the result before the forward's answer adopts
	// it early (CompleteAgent, then CreateAgent merges).
	st, _ := g.reg.Agent(rd.AgentID)
	relay := g.cfg.Cluster != nil && st.Origin != "" && st.Origin != g.cfg.Addr
	if err := g.fileResult(rd, doc, "result", !relay); err != nil {
		return err
	}
	g.mResults.Inc()
	if relay {
		rctx := context.WithoutCancel(ctx)
		g.relays.Add(1)
		g.cfg.Spawn(func() {
			defer g.relays.Add(-1)
			g.relayResult(rctx, st.Origin, rd, doc)
		})
	}
	return nil
}

// fileResult stores a result document in the File Directory, files it
// in the owner's mailbox when this member is the one the device talks
// to, and only then publishes the completion — so a refused store or
// enqueue leaves nothing behind and the caller's retry starts clean.
// span is the trace op recorded once the document is stored, ahead of
// the enqueue's "mailbox" span.
func (g *Gateway) fileResult(rd *wire.ResultDocument, doc []byte, span string, enqueue bool) error {
	docID, err := g.cfg.Documents.Add(doc)
	if err != nil {
		return fmt.Errorf("storing result for %s: %w", rd.AgentID, err)
	}
	g.trace.Record(rd.AgentID, span, rd.Status)
	if enqueue {
		if err := g.enqueueResult(rd, doc); err != nil {
			_ = g.cfg.Documents.Delete(docID)
			return err
		}
	}
	g.reg.CompleteAgent(rd.AgentID, rd.CodeID, rd.Owner, docID, rd.Error)
	// A result filed twice — the relay racing the edge's on-demand
	// fetch of the same document — keeps its first copy; the mailbox
	// dedups on the agent id, the File Directory here.
	if st, _ := g.reg.Agent(rd.AgentID); st.DocID != docID {
		_ = g.cfg.Documents.Delete(docID)
	}
	return nil
}

// --- handheld-facing handlers -------------------------------------------

func (g *Gateway) handlePing(_ context.Context, _ *transport.Request) *transport.Response {
	return transport.OK([]byte("p"))
}

func (g *Gateway) handleCatalog(_ context.Context, _ *transport.Request) *transport.Response {
	cat := &wire.Catalogue{Gateway: g.cfg.Addr, Packages: g.reg.Packages()}
	return transport.OK(cat.EncodeXML())
}

func (g *Gateway) handleSubscribe(ctx context.Context, req *transport.Request) *transport.Response {
	codeID := req.GetHeader("code-id")
	owner := req.GetHeader("owner")
	if codeID == "" || owner == "" {
		return transport.Errorf(transport.StatusBadRequest, "subscribe needs code-id and owner headers")
	}
	cp, _, ok := g.reg.Package(codeID)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "no code package %q", codeID)
	}
	// Tenant binding (§12): a subscribe carrying tenant + tenant-secret
	// headers binds the subscription to that account — every later
	// dispatch against it is admitted and billed there. The tenant
	// secret gates the binding; otherwise anyone could park their
	// traffic on a victim's quota. Without the headers the subscription
	// belongs to the implicit default account.
	tenantID := tenant.DefaultID
	if id := req.GetHeader("tenant"); id != "" {
		t, known := g.cfg.Tenants.Get(id)
		if !known || t.Secret != req.GetHeader("tenant-secret") {
			return transport.Errorf(transport.StatusUnauthorized,
				"unknown tenant %q or bad tenant secret", id)
		}
		tenantID = id
	}
	secret, err := pisec.NewSubscriptionSecret(ctx)
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "issuing secret: %v", err)
	}
	g.reg.SetSecret(codeID, owner, secret, tenantID)

	pubKey, err := g.cfg.KeyPair.Public().Marshal()
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "marshalling key: %v", err)
	}
	sub := &wire.Subscription{Package: cp, Secret: secret, GatewayKey: pubKey, Gateway: g.cfg.Addr}
	doc, err := sub.EncodeXML()
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "encoding subscription: %v", err)
	}
	return transport.OK(doc)
}

// handleDispatch wraps the Agent Dispatch Handler with the dispatch
// latency histogram, outcome counters and the journey's first trace
// span. The instrumentation is two atomic bumps and one ring append —
// no allocations — so the dispatch-E2E allocation budget is untouched.
func (g *Gateway) handleDispatch(ctx context.Context, req *transport.Request) *transport.Response {
	start := time.Now()
	resp := g.dispatchDevice(ctx, req)
	g.mDispatchUs.Observe(time.Since(start))
	g.mDispatched.Inc()
	if resp.IsOK() {
		if id := resp.GetHeader("agent"); id != "" {
			g.trace.Record(id, "dispatch", "")
		}
	} else {
		g.mDispatchErr.Inc()
	}
	return resp
}

// dispatchDevice is the Agent Dispatch Handler of Figure 6. Every
// registry access below locks only the shard of the key in hand, so
// dispatches for unrelated subscriptions and agents proceed in
// parallel.
func (g *Gateway) dispatchDevice(ctx context.Context, req *transport.Request) *transport.Response {
	if g.draining.Load() {
		// Graceful shutdown: refuse new work with a retryable status so
		// devices (and forwarding peers) go elsewhere.
		return transport.Errorf(transport.StatusUnavailable, "gateway %s is draining", g.cfg.Addr)
	}
	if why := g.unhealthy(); why != "" {
		return transport.Errorf(transport.StatusUnavailable, "gateway %s refusing dispatches: %s", g.cfg.Addr, why)
	}
	// Bound what an unauthenticated sender can have hashed and
	// decrypted: not retryable, the same body will never fit.
	if len(req.Body) > maxDispatchBody {
		return transport.Errorf(transport.StatusBadRequest,
			"packed information is %d bytes, limit %d", len(req.Body), maxDispatchBody)
	}
	// Step 1-2: security check and decryption (Figure 7), then
	// decompression and XML parsing (the XML Writer).
	pi, err := wire.Unpack(req.Body, g.cfg.KeyPair)
	if err != nil {
		// A sealed upload naming a session this gateway does not hold
		// (evicted, or this process restarted): 412, like a stale code
		// hash below and for the same reasons — before the key check,
		// admission and the nonce, so the device's one re-send, carrying
		// the wrapped key, is admitted (DESIGN.md §pisec).
		if errors.Is(err, pisec.ErrUnknownSession) {
			return transport.Errorf(transport.StatusPreconditionFailed, "unpacking packed information: %v", err)
		}
		return transport.Errorf(transport.StatusBadRequest, "unpacking packed information: %v", err)
	}

	// Step 3: the Agent Creator validates the supplied unique key. The
	// same shard lookup also resolves the tenant account the
	// subscription was bound to at subscribe time (the default account,
	// "", unless a tenant claimed it) — the tenant is never read from
	// the request, so a device cannot bill its traffic to someone
	// else's account.
	secret, tenantID, subscribed := g.reg.SecretOwner(pi.CodeID, pi.Owner)
	if !subscribed {
		g.mRefusedAuth.Inc()
		return transport.Errorf(transport.StatusUnauthorized,
			"no subscription for code %q by %q", pi.CodeID, pi.Owner)
	}
	if !pisec.VerifyDispatchKey(pi.CodeID, secret, pi.DispatchKey) {
		g.mRefusedAuth.Inc()
		return transport.Errorf(transport.StatusUnauthorized,
			"invalid dispatch key for code %q", pi.CodeID)
	}
	// A device retrying an upload whose answer it lost: the nonce is
	// already bound to the agent it admitted. Answered before admission
	// — it creates nothing, so it is never shed, refused or charged a
	// rate token — and like every replay answer below it carries no
	// mailbox token and honours no ack.
	if pi.Nonce != "" {
		if agentID := g.reg.NonceAgent(pi.CodeID, pi.Owner, pi.Nonce); agentID != "" {
			return agentAnswer(agentID)
		}
	}
	// Code by reference (DESIGN.md §7): a device dispatching catalogue
	// code names it by hash. Resolved before admission and the nonce, so
	// a 412 for code this gateway does not hold costs no rate token and
	// leaves the nonce free for the device's re-send carrying the code.
	if pi.Source == "" {
		cp, hash, ok := g.reg.Package(pi.CodeID)
		if !ok || hash != pi.CodeHash {
			g.mRefusedCode.Inc()
			return transport.Errorf(transport.StatusPreconditionFailed,
				"code %q with hash %s not held here", pi.CodeID, pi.CodeHash)
		}
		pi.Source, pi.CodeHash = cp.Source, ""
	}
	// Admission (DESIGN.md §11–§12): the in-flight shed, then the
	// tenant's own rate and quota limits. Runs after the key check, so an
	// unauthenticated or malformed upload is answered 400/401 whatever
	// the load, and before the mailbox is touched and the nonce is
	// consumed, so a refused dispatch neither grows hub state nor wedges
	// the device's retry.
	if resp := g.admitTenant(tenantID); resp != nil {
		return resp
	}
	// The device just proved a subscription (dispatch key verified):
	// open its mailbox here — this is the member it talks to — so its
	// long-polls park even before the first notification lands, and
	// hand it the mailbox token the delivery endpoints demand (on
	// fresh-nonce admissions only; see the replay path below).
	mailboxToken := g.hub.Touch(pi.Owner)
	if tenantID != "" {
		// Bind the mailbox to the subscription's account, so pending
		// mail bills against the tenant's mailbox-byte quota.
		g.hub.SetTenant(pi.Owner, tenantID)
	}

	// Replay protection (extension beyond the paper's Figure 7): every
	// PI must carry a fresh nonce; a captured upload replayed verbatim
	// is refused instead of re-dispatching the agent.
	if pi.Nonce == "" {
		return transport.Errorf(transport.StatusBadRequest,
			"packed information missing dispatch nonce")
	}
	if !g.reg.RememberNonce(pi.CodeID, pi.Owner, pi.Nonce) {
		// A seen nonce whose admission completed is a device retrying a
		// dispatch whose response was lost: answer idempotently with the
		// original agent id. Anything else is a replay (or a still
		// in-flight admission) and is refused. Deliberately NOT stamped
		// with the mailbox token, and deaf to an ack: a wire-captured PI
		// replayed by an attacker takes this exact path, and the token
		// gates mailbox reads and destructive acks — only first admissions
		// (fresh nonces the attacker cannot mint without the subscription
		// secret) hand it out, retire mail or carry it. The legitimate
		// device that lost the original response falls back to the
		// pull-repair collect until its next fresh dispatch re-delivers
		// the token.
		if agentID := g.reg.NonceAgent(pi.CodeID, pi.Owner, pi.Nonce); agentID != "" {
			return agentAnswer(agentID)
		}
		return transport.Errorf(transport.StatusConflict,
			"replayed packed information (nonce already used)")
	}

	// Answered in the dispatch (DESIGN.md §7): a device that presents its
	// mailbox token and cursor on the upload is asking for what a poll
	// would ask. The ack is staged now, ahead of the admission, so the
	// enqueue of a journey that ends inside it commits both at once; the
	// mail goes out with the answer. Any other request — no token, a stale
	// one, no cursor — is answered as it always was, current token stamped.
	mailAsked := false
	if g.hub.CheckToken(pi.Owner, req.GetHeader("mailbox-token")) {
		if ack, err := strconv.ParseUint(req.GetHeader("ack"), 10, 64); err == nil {
			mailAsked = true
			// Only the ack is wanted here; the mail is read once the
			// admission has added to it.
			_, _, _, _ = g.hub.PollStaged(pi.Owner, ack, 1)
		}
	}
	answer := func(resp *transport.Response) *transport.Response {
		if !resp.IsOK() {
			return resp
		}
		if mailAsked {
			return g.attachMail(req, pi.Owner, resp)
		}
		if mailboxToken != "" {
			resp.SetHeader("mailbox-token", mailboxToken)
		}
		return resp
	}

	// Federation: the security check happened here at the edge; if the
	// consistent-hash ring homes this subscription on another member,
	// hand the authenticated PI over and track the agent remotely.
	if g.cfg.Cluster != nil {
		if resp, routed := g.routeDispatch(ctx, pi, tenantID); routed {
			return answer(resp)
		}
	}
	return answer(g.admitDispatch(ctx, pi, "", tenantID))
}

// admitDispatch is steps 4–6 of the Agent Dispatch Handler: compile,
// create the agent over the request's parameters and admit it. origin
// is the edge member that forwarded the dispatch ("" for direct ones);
// the result document will be relayed back to it. tenantID is the
// account the journey bills to ("" = default) — it threads into the
// registry entry (in-flight ledger) and the MAS record (journal and
// transfer accounting). Every failure path releases the PI's nonce: it
// was consumed by the replay check before admission, and keeping it
// burned would turn each retry of this upload into a 409 forever (the
// exact wedge the idempotent-retry machinery exists to prevent).
func (g *Gateway) admitDispatch(ctx context.Context, pi *wire.PackedInformation, origin, tenantID string) *transport.Response {
	fail := func(resp *transport.Response) *transport.Response {
		g.reg.ForgetNonce(pi.CodeID, pi.Owner, pi.Nonce)
		return resp
	}
	// Step 4: "generate mobile agent classes from the information" —
	// compile the shipped source. Registered packages were compiled and
	// pinned at AddCodePackage time, so the common case is a cache hit
	// that performs no lexer or parser work at all.
	prog, _, err := g.progs.CompileString(pi.Source)
	if err != nil {
		return fail(transport.Errorf(transport.StatusBadRequest, "agent code: %v", err))
	}

	// Steps 5–6: the agent is created over the request's parameters
	// (pi.Params) — the only reader of the request, so no request
	// document is stored — and the MAS is signalled to dispatch it.
	agentID := g.reg.NextAgentID(g.cfg.Addr)
	vm, err := mavm.New(prog, agentID, pi.Params)
	if err != nil {
		return fail(transport.Errorf(transport.StatusServerError, "creating agent: %v", err))
	}
	g.reg.CreateAgent(agentID, pi.CodeID, pi.Owner, tenantID, origin, "")
	// The admit span goes first: the agent's first slice runs inside
	// the admission, and a zero-hop journey's result, mailbox and
	// deliver spans must follow it in the trace.
	g.trace.Record(agentID, "admit", pi.CodeID)
	if err := g.mas.AdmitAgent(ctx, vm, pi.CodeID, pi.Owner, tenantID, g.cfg.Addr); err != nil {
		// Retire the tracking entry so a failed admission does not
		// inflate the in-flight load gauge forever (which would make
		// the cluster spill this member's keys for no reason).
		g.reg.ReleaseAgent(agentID, "admission failed: "+err.Error())
		g.trace.Record(agentID, "admit-failed", err.Error())
		return fail(transport.Errorf(transport.StatusServerError, "admitting agent: %v", err))
	}
	// Bind the nonce to the admitted agent so a device retrying this
	// upload (lost response, crash before recording) gets the same
	// agent id back instead of a replay refusal.
	g.reg.BindNonce(pi.CodeID, pi.Owner, pi.Nonce, agentID)
	return agentAnswer(agentID)
}

// agentAnswer hands a device its agent id, as the body and in the
// agent header — the answer to an admission and, idempotently, to any
// retry of it.
func agentAnswer(agentID string) *transport.Response {
	resp := transport.OKText(agentID)
	resp.SetHeader("agent", agentID)
	return resp
}

// handleResult serves a result document. 404 means the agent is
// unknown here: never dispatched, or retired past mas.MaxRetired.
func (g *Gateway) handleResult(ctx context.Context, req *transport.Request) *transport.Response {
	agentID := req.GetHeader("agent")
	st, ok := g.reg.Agent(agentID)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "unknown agent %q (never dispatched here, or retired)", agentID)
	}
	if !st.Done {
		if st.Gone {
			return transport.Errorf(transport.StatusGone, "agent %q has no result: %s", agentID, st.LastWhy)
		}
		if st.HomeGW != "" && g.cfg.Cluster != nil {
			// Forwarded dispatch whose result relay has not landed yet
			// (or was lost to a member restart): fetch from the home
			// member and adopt the document locally.
			return g.fetchRemoteResult(ctx, agentID, st)
		}
		return transport.Errorf(transport.StatusConflict, "agent %q still travelling", agentID)
	}
	doc, err := g.cfg.Documents.Get(st.DocID)
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "loading result: %v", err)
	}
	return transport.OK(doc)
}

// handleStatus reports an agent's progress, chasing forwarding
// pointers across MAS hosts when the agent has moved on.
func (g *Gateway) handleStatus(ctx context.Context, req *transport.Request) *transport.Response {
	agentID := req.GetHeader("agent")
	st, ok := g.reg.Agent(agentID)
	if !ok {
		return transport.Errorf(transport.StatusNotFound, "unknown agent %q", agentID)
	}
	if st.Done {
		resp := transport.OKText("complete")
		resp.SetHeader("agent-state", "complete")
		return resp
	}
	if st.Gone {
		// Terminal without a result (disposed): answer directly instead
		// of taking an outbound slot to chase an agent that no longer
		// exists.
		resp := transport.OKText(st.LastWhy)
		resp.SetHeader("agent-state", "disposed")
		return resp
	}
	start, fallback := g.chaseStart(agentID, st)
	addr, body, err := g.locate(ctx, agentID, start, fallback)
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "locating agent: %v", err)
	}
	resp := transport.OK(body)
	resp.SetHeader("agent-state", "travelling")
	resp.SetHeader("agent-host", addr)
	return resp
}

// locate runs a chase under an outbound slot, bounding how many
// concurrent chases a burst of status requests can fan out.
func (g *Gateway) locate(ctx context.Context, agentID, start, fallback string) (addr string, body []byte, err error) {
	if rerr := g.out.run(ctx, func(ctx context.Context) {
		addr, body, err = g.chase(ctx, agentID, start, fallback)
	}); rerr != nil {
		return "", nil, rerr
	}
	return addr, body, err
}

// chase follows moved-to pointers from start (usually the home MAS; a
// clustered gateway may seed it from the location directory) until it
// finds the host currently holding the agent; it returns that host's
// status document. A stale directory hint that no longer knows the
// agent restarts the chase from fallback — the agent's home MAS,
// which always has the first pointer. It runs under an outbound slot.
func (g *Gateway) chase(ctx context.Context, agentID, start, fallback string) (addr string, status []byte, err error) {
	const maxHops = 16
	if fallback == "" {
		fallback = g.cfg.Addr
	}
	addr = start
	if addr == "" {
		addr = fallback
	}
	hinted := addr != fallback
	var lastBody []byte
	for i := 0; i < maxHops; i++ {
		sreq := &transport.Request{Path: "/atp/status"}
		sreq.SetHeader("agent", agentID)
		resp, rerr := g.cfg.Transport.RoundTrip(ctx, addr, sreq)
		if rerr != nil || !resp.IsOK() {
			if hinted && i == 0 {
				// The directory hint went stale (host gone, or the agent
				// already forwarded past it and forgotten): restart from
				// the home MAS, which always has the first pointer.
				addr, hinted = fallback, false
				continue
			}
			if rerr != nil {
				return addr, nil, rerr
			}
			return addr, nil, fmt.Errorf("status at %s: %s", addr, resp.Text())
		}
		root, perr := parseStatus(resp.Body)
		if perr != nil {
			return addr, nil, perr
		}
		lastBody = resp.Body
		if root.state == string(mas.StateDeparted) && root.movedTo != "" && root.movedTo != addr {
			addr = root.movedTo
			continue
		}
		return addr, lastBody, nil
	}
	return addr, lastBody, fmt.Errorf("forwarding chain longer than %d", maxHops)
}

// manage runs a management verb at the host currently holding the
// agent (§3.6: clone, retract, dispose). The whole remote interaction
// — chase plus verb — holds one outbound slot.
func (g *Gateway) manage(ctx context.Context, agentID, verb string, extra map[string]string) *transport.Response {
	st, known := g.reg.Agent(agentID)
	if !known {
		return transport.Errorf(transport.StatusNotFound, "unknown agent %q", agentID)
	}
	start, fallback := g.chaseStart(agentID, st)
	var resp *transport.Response
	derr := g.out.run(ctx, func(ctx context.Context) {
		addr, _, err := g.chase(ctx, agentID, start, fallback)
		if err != nil {
			resp = transport.Errorf(transport.StatusServerError, "locating agent: %v", err)
			return
		}
		mreq := &transport.Request{Path: "/atp/" + verb}
		mreq.SetHeader("agent", agentID)
		for k, v := range extra {
			mreq.SetHeader(k, v)
		}
		r, err := g.cfg.Transport.RoundTrip(ctx, addr, mreq)
		if err != nil {
			resp = transport.Errorf(transport.StatusServerError, "%s at %s: %v", verb, addr, err)
			return
		}
		resp = r
	})
	if derr != nil {
		return transport.Errorf(transport.StatusUnavailable, "%s: %v", verb, derr)
	}
	return resp
}

func (g *Gateway) handleRetract(ctx context.Context, req *transport.Request) *transport.Response {
	return g.manage(ctx, req.GetHeader("agent"), "retract", map[string]string{"to": g.cfg.Addr})
}

func (g *Gateway) handleDispose(ctx context.Context, req *transport.Request) *transport.Response {
	agentID := req.GetHeader("agent")
	resp := g.manage(ctx, agentID, "dispose", nil)
	if resp.IsOK() {
		// A disposed agent will never produce a result: mark it
		// terminal, so a result request answers 410 Gone.
		g.reg.ReleaseAgent(agentID, "disposed by owner")
		g.mas.RetireDisposed(agentID)
		// Status change into the mailbox: any other session of this
		// owner learns the journey is over without polling status.
		g.enqueueNote(agentID, "", push.KindStatus, "disposed:"+agentID, "disposed by owner")
	}
	return resp
}

func (g *Gateway) handleClone(ctx context.Context, req *transport.Request) *transport.Response {
	agentID := req.GetHeader("agent")
	resp := g.manage(ctx, agentID, "clone", nil)
	if resp.IsOK() {
		// Track the clone like our own dispatch so its results are
		// collectable.
		cloneID := resp.Text()
		g.reg.AdoptClone(agentID, cloneID)
		// Management notification: the clone id reaches the owner even
		// if this response is lost on the wireless leg.
		g.enqueueNote(agentID, "", push.KindManage, "clone:"+cloneID, "cloned as "+cloneID)
	}
	return resp
}

// handleGateways serves the §3.5 directory. A clustered gateway
// answers with the live membership view (self first), so devices probe
// real members instead of a stale static list; the static Peers list
// is the fallback for unclustered deployments.
func (g *Gateway) handleGateways(_ context.Context, _ *transport.Request) *transport.Response {
	var addrs []string
	if g.cfg.Cluster != nil {
		addrs = g.cfg.Cluster.AliveAddrs()
	}
	if len(addrs) == 0 {
		addrs = append([]string{g.cfg.Addr}, g.cfg.Peers...)
	}
	list := &wire.GatewayList{Addresses: addrs}
	return transport.OK(list.EncodeXML())
}

// statusFields is the subset of the MAS status document the gateway
// needs for chasing.
type statusFields struct {
	state   string
	movedTo string
}

func parseStatus(body []byte) (*statusFields, error) {
	root, err := parseXML(body)
	if err != nil {
		return nil, err
	}
	return &statusFields{
		state:   root.AttrDefault("state", ""),
		movedTo: root.AttrDefault("moved-to", ""),
	}, nil
}

func parseXML(body []byte) (*kxml.Node, error) {
	return kxml.ParseBytes(body)
}
