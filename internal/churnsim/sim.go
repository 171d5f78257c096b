// Package churnsim is the million-device scale-and-churn harness
// (DESIGN.md §8): it drives the mailbox hub and the gateway's delivery
// endpoints with 10⁵–10⁶ simulated devices on virtual time — reconnect
// storms, scripted join/leave/crash churn, diurnal load waves — and
// reports HDR-style latency percentiles (metrics.Histogram) plus
// memory-per-idle-device, so fleet-scale regressions are caught by CI
// instead of by a pager.
//
// Everything here is deterministic under a seed: delays come from
// netsim links and the host-capacity queue model, never from wall
// clocks, so the percentiles a scenario reports are bit-identical
// across machines and safe to gate in CI.
package churnsim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"pdagent/internal/cluster"
	"pdagent/internal/gateway"
	"pdagent/internal/metrics"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

// simEpoch anchors the virtual clock to a fixed wall instant so every
// run is reproducible (hub TTLs compare wall times; a time.Now anchor
// would make two runs differ).
var simEpoch = time.Unix(1_700_000_000, 0)

// ledger tracks every enqueued event through its lifetime so scenarios
// can assert exactly-once delivery and conservation independently of
// the hub's own counters (which restart across simulated crashes).
type ledger struct {
	state       map[string]uint8 // event id -> ledgerEnqueued / ledgerDelivered
	enqueued    uint64
	delivered   uint64
	redelivered uint64 // deliveries of an already-delivered event (must stay 0)
}

const (
	ledgerEnqueued uint8 = iota + 1
	ledgerDelivered
)

func newLedger() *ledger { return &ledger{state: map[string]uint8{}} }

func (l *ledger) enqueue(event string) {
	l.state[event] = ledgerEnqueued
	l.enqueued++
}

func (l *ledger) deliver(event string) {
	if l.state[event] == ledgerDelivered {
		l.redelivered++
		return
	}
	l.state[event] = ledgerDelivered
	l.delivered++
}

// --- script runner (hub level) ------------------------------------------

// FleetConfig configures a hub-level script run.
type FleetConfig struct {
	// Store backs the hub (default: fresh MemStore). Crashes in the
	// script restart the hub over this same store.
	Store rms.Store
	// Quota / TTL / DedupTTL configure the hub (see push.Config).
	Quota    int
	TTL      time.Duration
	DedupTTL time.Duration
	// Logf, when set, receives phase-by-phase progress.
	Logf func(format string, args ...any)
}

// ScriptResult is the outcome of one script run, with conservation
// inputs gathered across every hub generation the script crashed
// through.
type ScriptResult struct {
	Devices int
	// Ledger truth (survives crashes).
	Enqueued, Delivered, Redelivered uint64
	// Hub counters accumulated across generations.
	Duplicates, ExpiredTTL, EvictedQuota uint64
	// Pending is the mail still undelivered at the end (after the final
	// drain this is quota/TTL losses only, normally 0).
	Pending uint64
	// Drain is the per-entry latency from enqueue to delivery on the
	// virtual clock (mail to online devices drains at ~0; mail to
	// offline devices waits for their reconnect).
	Drain *metrics.Histogram
	// PeakPending is the largest pending backlog observed at any phase
	// boundary.
	PeakPending int
	// Elapsed is the script's total virtual time.
	Elapsed time.Duration
	// Crashes counts hub restarts the script survived.
	Crashes int
}

// CheckConservation returns an error unless every enqueued entry is
// accounted for: delivered exactly once, expired by TTL, evicted by
// quota, or still pending.
func (r *ScriptResult) CheckConservation() error {
	if r.Redelivered != 0 {
		return fmt.Errorf("churnsim: %d entries delivered more than once", r.Redelivered)
	}
	got := r.Delivered + r.ExpiredTTL + r.EvictedQuota + r.Pending
	if got != r.Enqueued {
		return fmt.Errorf("churnsim: conservation violated: enqueued %d != delivered %d + expired %d + evicted %d + pending %d",
			r.Enqueued, r.Delivered, r.ExpiredTTL, r.EvictedQuota, r.Pending)
	}
	return nil
}

// fleetRunner is the mutable state of one script run.
type fleetRunner struct {
	cfg   FleetConfig
	hub   *push.Hub
	store rms.Store
	rng   *rand.Rand
	vnow  time.Duration

	devices []string // all joined devices
	cursors []uint64
	online  []int   // device indexes currently online (swap-remove set)
	pos     []int   // device index -> position in online, -1 if offline
	offline []int   // device indexes currently offline
	offPos  []int   // device index -> position in offline, -1 if online
	mailSeq uint64  // unique event ids
	led     *ledger // delivery truth
	res     *ScriptResult
	// counters of closed hub generations (added to the live hub's
	// Stats() at the end).
	baseDup, baseTTL, baseQuota uint64
}

func (f *fleetRunner) clock() time.Time { return simEpoch.Add(f.vnow) }

// RunScript executes a churn script against a fresh hub and returns the
// accounting. The run ends with every remaining offline device
// reconnecting and draining, so a conserving hub finishes with zero
// pending mail (minus TTL/quota losses, which are counted).
func RunScript(s Script, cfg FleetConfig) (*ScriptResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	f := &fleetRunner{
		cfg:   cfg,
		store: cfg.Store,
		rng:   rand.New(rand.NewSource(s.Seed)),
		led:   newLedger(),
		res:   &ScriptResult{Drain: &metrics.Histogram{}},
	}
	if f.store == nil {
		f.store = rms.NewMemStore("churn", 0)
	}
	if err := f.openHub(); err != nil {
		return nil, err
	}
	for _, p := range s.Phases {
		if err := f.runPhase(p); err != nil {
			return nil, err
		}
	}
	// Final drain: every device reconnects once more so conservation can
	// be checked against a quiesced fleet.
	for len(f.offline) > 0 {
		f.reconnect()
	}
	for _, idx := range append([]int(nil), f.online...) {
		f.drain(idx)
	}
	f.hub.SweepExpired()
	st := f.hub.Stats()
	f.res.Devices = len(f.devices)
	f.res.Enqueued = f.led.enqueued
	f.res.Delivered = f.led.delivered
	f.res.Redelivered = f.led.redelivered
	f.res.Duplicates = f.baseDup + st.Duplicates
	f.res.ExpiredTTL = f.baseTTL + st.EvictedTTL
	f.res.EvictedQuota = f.baseQuota + st.EvictedQuota
	f.res.Pending = uint64(st.Pending)
	f.res.Elapsed = f.vnow
	return f.res, nil
}

func (f *fleetRunner) openHub() error {
	hub, err := push.NewHub(push.Config{
		Store:    f.store,
		Quota:    f.cfg.Quota,
		TTL:      f.cfg.TTL,
		DedupTTL: f.cfg.DedupTTL,
		Clock:    f.clock,
	})
	if err != nil {
		return err
	}
	f.hub = hub
	return nil
}

func (f *fleetRunner) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// opJoin..opMail are the shuffled per-phase operation kinds.
const (
	opJoin = iota
	opLeave
	opReconnect
	opMail
)

func (f *fleetRunner) runPhase(p Phase) error {
	if p.CrashGateway {
		// Simulated process crash: the in-memory hub vanishes, the next
		// generation replays the durable store.
		snap := f.hub.Stats()
		f.baseDup += snap.Duplicates
		f.baseTTL += snap.EvictedTTL
		f.baseQuota += snap.EvictedQuota
		f.hub.Close()
		if err := f.openHub(); err != nil {
			return err
		}
		f.res.Crashes++
		f.logf("churnsim: %s: crashed and replayed %d devices", p.Name, len(f.devices))
	}
	ops := make([]int, 0, p.Ops())
	for i := 0; i < p.Joins; i++ {
		ops = append(ops, opJoin)
	}
	for i := 0; i < p.Leaves; i++ {
		ops = append(ops, opLeave)
	}
	for i := 0; i < p.Reconnects; i++ {
		ops = append(ops, opReconnect)
	}
	for i := 0; i < p.Mail; i++ {
		ops = append(ops, opMail)
	}
	f.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	step := p.Duration
	if len(ops) > 0 {
		step = p.Duration / time.Duration(len(ops))
	}
	for _, op := range ops {
		f.vnow += step
		switch op {
		case opJoin:
			f.join()
		case opLeave:
			f.leave()
		case opReconnect:
			f.reconnect()
		case opMail:
			if err := f.mail(); err != nil {
				return err
			}
		}
	}
	if len(ops) == 0 {
		f.vnow += p.Duration
	}
	if st := f.hub.Stats(); st.Pending > f.res.PeakPending {
		f.res.PeakPending = st.Pending
	}
	f.logf("churnsim: %s done: vnow=%v devices=%d online=%d pending=%d",
		p.Name, f.vnow, len(f.devices), len(f.online), f.hub.Stats().Pending)
	return nil
}

func (f *fleetRunner) join() {
	idx := len(f.devices)
	name := "dev-" + strconv.Itoa(idx)
	f.devices = append(f.devices, name)
	f.cursors = append(f.cursors, 0)
	f.pos = append(f.pos, -1)
	f.offPos = append(f.offPos, -1)
	// Joining is what an authenticated dispatch does: the mailbox opens
	// and the device holds a session.
	f.hub.Touch(name)
	f.setOnline(idx, true)
}

func (f *fleetRunner) leave() {
	if len(f.online) == 0 {
		return
	}
	idx := f.online[f.rng.Intn(len(f.online))]
	f.setOnline(idx, false)
}

func (f *fleetRunner) reconnect() {
	if len(f.offline) == 0 {
		return
	}
	idx := f.offline[f.rng.Intn(len(f.offline))]
	f.setOnline(idx, true)
	f.drain(idx)
}

func (f *fleetRunner) mail() error {
	if len(f.devices) == 0 {
		return nil
	}
	idx := f.rng.Intn(len(f.devices))
	f.mailSeq++
	event := "ev-" + strconv.FormatUint(f.mailSeq, 10)
	_, dup, err := f.hub.Enqueue(f.devices[idx], push.KindResult, "ag-churn", event, churnBody)
	if err != nil {
		return err
	}
	if !dup {
		f.led.enqueue(event)
	}
	// A connected device is long-polling: the enqueue wakes it and it
	// drains immediately.
	if f.pos[idx] >= 0 {
		f.drain(idx)
	}
	return nil
}

var churnBody = []byte(`<result-document agent="ag-churn" code-id="echo" owner="dev" status="done" hops="2" steps="12"><result key="echo"><str>ok</str></result></result-document>`)

// drain polls the device's mailbox to empty, acking as it goes, and
// feeds the ledger + latency histogram.
func (f *fleetRunner) drain(idx int) {
	dev := f.devices[idx]
	for {
		entries, watermark, _, err := f.hub.Poll(dev, f.cursors[idx], 64)
		if err != nil || len(entries) == 0 {
			f.cursors[idx] = watermark
			return
		}
		for _, e := range entries {
			f.led.deliver(e.EventID)
			f.res.Drain.Observe(f.vnow - e.Enqueued.Sub(simEpoch))
		}
		f.cursors[idx] = watermark
	}
}

// setOnline moves a device between the online and offline sets (both
// O(1) swap-remove index sets, so million-device fleets churn without
// linear scans in the harness itself).
func (f *fleetRunner) setOnline(idx int, online bool) {
	if online {
		if f.pos[idx] >= 0 {
			return
		}
		if p := f.offPos[idx]; p >= 0 {
			last := len(f.offline) - 1
			f.offline[p] = f.offline[last]
			f.offPos[f.offline[p]] = p
			f.offline = f.offline[:last]
			f.offPos[idx] = -1
		}
		f.pos[idx] = len(f.online)
		f.online = append(f.online, idx)
		return
	}
	if f.offPos[idx] >= 0 {
		return
	}
	if p := f.pos[idx]; p >= 0 {
		last := len(f.online) - 1
		f.online[p] = f.online[last]
		f.pos[f.online[p]] = p
		f.online = f.online[:last]
		f.pos[idx] = -1
	}
	f.offPos[idx] = len(f.offline)
	f.offline = append(f.offline, idx)
}

// --- reconnect storm (gateway level) ------------------------------------

// The storm's fixed shape. Each member is a deliberately tight middle
// tier — one server, 100µs per request: a 100k storm in a 30s window
// runs it at ~67% utilisation, so arrival bursts queue and the waits
// show in the drain tail. A device drains its mail in one poll batch.
const (
	stormServers    = 1
	stormPerRequest = 100 * time.Microsecond
	stormBatch      = 64
)

// StormConfig configures a gateway-level reconnect storm: Devices
// mailboxes fill at member 0 while the fleet is dark, then every device
// reconnects inside Window and drains through the real delivery
// endpoint (/pdagent/mailbox: the gateway's one mailbox read handler,
// on the path older devices send to) over a capacity-limited simulated
// network.
type StormConfig struct {
	// Devices is the fleet size (the CI scenario runs 100k+).
	Devices int
	// EntriesPerDevice is the mail waiting per device (default 1;
	// fewer than 64, so a crash's wave entry still fits one poll).
	EntriesPerDevice int
	// Window is the virtual span the reconnects land in (default 30s).
	Window time.Duration
	// Members is the cluster size (default 1). With more than one, the
	// fleet's mailboxes live at member 0 and every device reconnects
	// through another member, forcing a migration pull per device — the
	// cell-tower storm where the herd lands on the wrong edge.
	Members int
	// Crash, when set, makes the storm the §10 failover drill under
	// that replication mode. The run has two members, and member 0
	// replicates every mailbox to member 1, the edge the whole fleet
	// reconnects through. At Window/2 a wave of fresh mail lands at
	// member 0, one entry for each of the first Devices/10 (at least 1)
	// devices still offline: the commits whose replication the crash
	// races. Member 0 then dies with its store lost, and member 1
	// fences it and promotes the replica. Loss must be what the mode
	// promises: none for semi-sync, at most the replication lag sampled
	// at the kill for async.
	Crash repl.Mode
	// NewStore, when set, supplies each member's mailbox store (e.g. a
	// WALStore, to run the storm against the durable engine). Default:
	// a fresh MemStore per member. The caller owns the stores and
	// closes them after the storm returns.
	NewStore func(member int) rms.Store
	// Seed drives reconnect times and link jitter.
	Seed int64
	// Logf, when set, receives progress (the 100k run takes seconds)
	// and the members' diagnostics.
	Logf func(format string, args ...any)
}

// StormResult reports a reconnect storm.
type StormResult struct {
	// Entries is the preload; Enqueued adds a crash's wave to it.
	Devices, Entries                 int
	Enqueued, Delivered, Redelivered uint64
	// Lost is Enqueued - Delivered: 0 unless Crash is async, and then
	// at most LostWindow (both enforced before returning).
	Lost uint64
	// LostWindow is member 0's unreplicated ops sampled at the kill.
	LostWindow int
	// PromotedMailboxes counts the mailboxes the standby adopted; Fence
	// is the epoch it raised over the dead member.
	PromotedMailboxes      int
	Fence                  uint64
	Duplicates             uint64
	MigrationPulls         int                // mailbox pulls the edges sent (Members > 1)
	Drain                  *metrics.Histogram // reconnect -> entry delivered (virtual)
	Session                *metrics.Histogram // reconnect -> mailbox drained + acked (virtual)
	QueueTime, ServiceTime time.Duration
	WallTime               time.Duration // real time the simulation took
	VirtualSpan            time.Duration // storm start -> last session end
}

// stormEvent is one scheduled device action on the virtual timeline.
type stormEvent struct {
	at        time.Duration
	device    int
	ack       bool   // false: fetch poll; true: cursor ack round
	watermark uint64 // carried from the fetch to the ack round
}

type stormHeap []stormEvent

func (h stormHeap) Len() int { return len(h) }
func (h stormHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].device < h[j].device // deterministic tie-break
}
func (h stormHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stormHeap) Push(x any)   { *h = append(*h, x.(stormEvent)) }
func (h *stormHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

var (
	stormKPOnce sync.Once
	stormKP     *pisec.KeyPair
	stormKPErr  error
)

func stormKeyPair() (*pisec.KeyPair, error) {
	stormKPOnce.Do(func() { stormKP, stormKPErr = pisec.GenerateKeyPair(1024) })
	return stormKP, stormKPErr
}

func devName(d int) string { return "dev-" + strconv.Itoa(d) }

// fleet is a gateway fleet on one simulated network: members gw-0 …
// gw-(n-1), each with a mailbox and the storm's host capacity, sharing
// one key, federated when there is more than one.
type fleet struct {
	addrs []string
	gws   []*gateway.Gateway
	peers []*repl.Peer // nil entries unless replicating
}

type fleetConfig struct {
	members  int
	newStore func(member int) rms.Store // nil: a fresh MemStore per member
	repl     repl.Mode                  // set: each member replicates to the next
	tenants  *tenant.Registry
	logf     func(format string, args ...any)
}

func newFleet(net *netsim.Network, c fleetConfig) (*fleet, error) {
	kp, err := stormKeyPair()
	if err != nil {
		return nil, err
	}
	wired := net.Transport(netsim.ZoneWired)
	f := &fleet{addrs: make([]string, c.members)}
	for i := range f.addrs {
		f.addrs[i] = "gw-" + strconv.Itoa(i)
	}
	for i, addr := range f.addrs {
		var node *cluster.Node
		if c.members > 1 {
			node = cluster.NewNode(cluster.Config{
				Self:      addr,
				Seeds:     f.addrs,
				Transport: wired,
				Secret:    "churn-cluster-secret",
			})
		}
		var peer *repl.Peer
		if c.repl != "" {
			standby := f.addrs[(i+1)%c.members]
			peer = repl.NewPeer(repl.Config{
				Self:      addr,
				Transport: wired,
				Identity:  node,
				StandbyFn: func() string { return standby },
				Mode:      c.repl,
				Logf:      c.logf,
			})
		}
		store := rms.Store(rms.NewMemStore("mb-"+addr, 0))
		if c.newStore != nil {
			store = c.newStore(i)
		}
		gw, err := gateway.New(gateway.Config{
			Addr:      addr,
			KeyPair:   kp,
			Transport: wired,
			Mailbox:   &gateway.MailboxConfig{Store: store},
			Cluster:   node,
			Repl:      peer,
			Tenants:   c.tenants,
			Logf:      c.logf,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.gws = append(f.gws, gw)
		f.peers = append(f.peers, peer)
		net.AddHost(addr, netsim.ZoneWired, gw.Handler())
		net.SetHostCapacity(addr, netsim.Capacity{Servers: stormServers, PerRequest: stormPerRequest})
	}
	return f, nil
}

func (f *fleet) close() {
	for _, gw := range f.gws {
		gw.Close()
	}
}

// ReconnectStorm runs the storm and asserts delivery invariants as it
// goes (exactly-once per event id, nothing stranded, nothing lost that
// the run does not allow); violations surface as errors, metrics in the
// result.
func ReconnectStorm(cfg StormConfig) (*StormResult, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("churnsim: storm needs devices")
	}
	if cfg.EntriesPerDevice <= 0 {
		cfg.EntriesPerDevice = 1
	}
	if cfg.EntriesPerDevice >= stormBatch {
		return nil, fmt.Errorf("churnsim: storm drains one poll batch; <%d entries per device", stormBatch)
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.Crash != "" {
		if _, err := repl.ParseMode(string(cfg.Crash)); err != nil {
			return nil, err
		}
		cfg.Members = 2
	}
	if cfg.Members <= 0 {
		cfg.Members = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()

	net := netsim.New(cfg.Seed)
	net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, netsim.DefaultWirelessLink())
	net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.DefaultWiredLink())
	fl, err := newFleet(net, fleetConfig{members: cfg.Members, newStore: cfg.NewStore, repl: cfg.Crash, logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	defer fl.close()
	addrs, gws := fl.addrs, fl.gws

	// Preload: the fleet's mail lands at member 0 while everyone is
	// dark (the hub is fed directly — results arriving is the mailbox
	// tests' subject; the storm measures the drain).
	hub0 := gws[0].Mailbox()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	tokens := make([]string, cfg.Devices)
	led := newLedger()
	enqueue := func(dev, event string) error {
		if _, dup, err := hub0.Enqueue(dev, push.KindResult, "ag-"+dev, event, churnBody); err != nil {
			return err
		} else if dup {
			return fmt.Errorf("churnsim: storm enqueue dup for %s", event)
		}
		led.enqueue(event)
		return nil
	}
	for d := 0; d < cfg.Devices; d++ {
		dev := devName(d)
		tokens[d] = hub0.Touch(dev)
		for k := 0; k < cfg.EntriesPerDevice; k++ {
			if err := enqueue(dev, "r:"+dev+":"+strconv.Itoa(k)); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Crash != "" {
		// One steady-state flush (the cluster tick): the standby now
		// holds the preload; only commits after this race the crash.
		fl.peers[0].Flush(context.Background())
	}
	logf("churnsim: storm preloaded %d devices x %d entries on %d member(s) in %v",
		cfg.Devices, cfg.EntriesPerDevice, cfg.Members, time.Since(start).Round(time.Millisecond))

	// Each device reconnects at a uniform instant inside the window —
	// through a non-home member when clustered, so the mailbox has to
	// chase it. An edge is drawn only when there is a choice.
	events := make(stormHeap, 0, cfg.Devices)
	edges := make([]int, cfg.Devices)
	for d := 0; d < cfg.Devices; d++ {
		edges[d] = cfg.Members - 1
		if cfg.Members > 2 {
			edges[d] = 1 + rng.Intn(cfg.Members-1)
		}
		events = append(events, stormEvent{
			at:     time.Duration(rng.Int63n(int64(cfg.Window))),
			device: d,
		})
	}
	heap.Init(&events)

	res := &StormResult{
		Devices: cfg.Devices,
		Entries: cfg.Devices * cfg.EntriesPerDevice,
		Drain:   &metrics.Histogram{},
		Session: &metrics.Histogram{},
	}
	reconnectAt := make([]time.Duration, cfg.Devices)
	reconnected := make([]bool, cfg.Devices)
	crashed := false
	crash := func() error {
		// The last instants of the primary's life: a burst of fresh
		// mail for devices still offline. Semi-sync acks each of these
		// on the standby before Enqueue returns; async leaves them in
		// the window the crash is about to destroy.
		wave := 0
		for d := 0; d < cfg.Devices && wave < max(cfg.Devices/10, 1); d++ {
			if !reconnected[d] {
				if err := enqueue(devName(d), "w:"+devName(d)); err != nil {
					return err
				}
				wave++
			}
		}
		res.LostWindow = fl.peers[0].PendingOps()
		// Kill with total disk loss: the process dies and nothing of
		// the store survives (the run never touches it again).
		if err := net.KillHost(addrs[0]); err != nil {
			return err
		}
		// The standby fences the corpse and promotes its replica.
		p, err := gws[1].PromoteOver(context.Background(), addrs[0])
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("churnsim: standby holds no replica of %s", addrs[0])
		}
		res.Fence, res.PromotedMailboxes = p.Fence, p.Mailboxes
		logf("churnsim: killed %s at %v (window: %d pending ops, wave %d); %s promoted %d mailboxes",
			addrs[0], cfg.Window/2, res.LostWindow, wave, addrs[1], p.Mailboxes)
		return nil
	}

	tr := net.Transport(netsim.ZoneWireless)
	done := 0
	for events.Len() > 0 {
		ev := heap.Pop(&events).(stormEvent)
		if cfg.Crash != "" && !crashed && ev.at >= cfg.Window/2 {
			if err := crash(); err != nil {
				return nil, err
			}
			crashed = true
		}
		d := ev.device
		dev := devName(d)
		clock := netsim.NewClock()
		clock.AdvanceTo(ev.at)
		ctx := netsim.WithClock(context.Background(), clock)

		req := &transport.Request{Path: "/pdagent/mailbox"}
		req.SetHeader("device", dev)
		req.SetHeader("mailbox-token", tokens[d])
		req.SetHeader("max", strconv.Itoa(stormBatch))
		if ev.ack {
			req.SetHeader("ack", strconv.FormatUint(ev.watermark, 10))
		} else {
			reconnectAt[d] = ev.at
			reconnected[d] = true
			req.SetHeader("ack", "0")
			if edges[d] != 0 && !crashed {
				// The device last talked to member 0; the edge pulls
				// its mailbox over. After a crash the directory no
				// longer lists the corpse, so no pull is attempted.
				req.SetHeader("prev-edge", addrs[0])
			}
		}
		resp, err := tr.RoundTrip(ctx, addrs[edges[d]], req)
		if err != nil {
			return nil, fmt.Errorf("churnsim: storm poll %s: %w", dev, err)
		}
		if !resp.IsOK() {
			return nil, fmt.Errorf("churnsim: storm poll %s: %d %s", dev, resp.Status, resp.Text())
		}
		_, entries, watermark, _, _, _, err := push.ParseEntries(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("churnsim: storm poll %s: %w", dev, err)
		}
		now := clock.Now()
		if ev.ack {
			// Ack round complete: the session is drained.
			if len(entries) != 0 {
				return nil, fmt.Errorf("churnsim: %s: %d entries after full drain", dev, len(entries))
			}
			res.Session.Observe(now - reconnectAt[d])
			if now > res.VirtualSpan {
				res.VirtualSpan = now
			}
			done++
			if done%50_000 == 0 {
				logf("churnsim: storm drained %d/%d devices (wall %v)",
					done, cfg.Devices, time.Since(start).Round(time.Millisecond))
			}
			continue
		}
		if want := cfg.EntriesPerDevice; cfg.Crash == "" && len(entries) != want {
			return nil, fmt.Errorf("churnsim: %s received %d entries, want %d", dev, len(entries), want)
		}
		for _, e := range entries {
			led.deliver(e.EventID)
			res.Drain.Observe(now - ev.at)
		}
		heap.Push(&events, stormEvent{at: now, device: d, ack: true, watermark: watermark})
	}

	// Invariants: nothing delivered twice, nothing left at a live
	// member, and loss only as a crash's mode allows.
	if led.redelivered != 0 {
		return nil, fmt.Errorf("churnsim: storm redelivered %d entries", led.redelivered)
	}
	for i, gw := range gws {
		if i == 0 && crashed {
			continue
		}
		for d := 0; d < cfg.Devices; d++ {
			if p := gw.Mailbox().Pending(devName(d)); p != 0 {
				return nil, fmt.Errorf("churnsim: %s still has %d entries stranded at %s", devName(d), p, addrs[i])
			}
		}
	}
	res.Enqueued, res.Delivered, res.Redelivered = led.enqueued, led.delivered, led.redelivered
	res.Lost = led.enqueued - led.delivered
	if cfg.Crash == repl.ModeAsync {
		if int(res.Lost) > res.LostWindow {
			return nil, fmt.Errorf("churnsim: async lost %d entries, more than the %d-op window sampled at the kill",
				res.Lost, res.LostWindow)
		}
	} else if res.Lost != 0 {
		return nil, fmt.Errorf("churnsim: storm lost %d of %d entries", res.Lost, res.Enqueued)
	}
	for _, gw := range gws {
		res.Duplicates += gw.Mailbox().Stats().Duplicates
		started, _ := gw.MailboxPullStats()
		res.MigrationPulls += int(started)
	}
	st := net.Stats()
	res.QueueTime, res.ServiceTime = st.QueueTime, st.ServiceTime
	res.WallTime = time.Since(start)
	logf("churnsim: storm complete: %d devices, %d/%d delivered, %d lost, drain p50=%dµs p99=%dµs p999=%dµs (wall %v)",
		cfg.Devices, res.Delivered, res.Enqueued, res.Lost,
		res.Drain.Quantile(0.50), res.Drain.Quantile(0.99), res.Drain.Quantile(0.999), res.WallTime)
	return res, nil
}
