// Package core is the public face of the PDAgent reproduction: it
// assembles complete deployments — gateways with embedded home MAS,
// network hosts running service agents, a central directory, and
// handheld platforms — over either the deterministic simulated network
// (experiments, examples) or real HTTP (the cmd/ daemons).
//
// A SimWorld is the whole Figure 3 environment in one process:
//
//	world, _ := core.NewSimWorld(core.SimConfig{Seed: 1})
//	dev, _ := world.NewDevice("alice")
//	ctx, clock := world.NewJourney()
//	dev.Subscribe(ctx, world.GatewayAddrs()[0], core.AppEBanking)
//	id, _ := dev.Dispatch(ctx, core.AppEBanking, params)
//	world.Run()                  // the agent journey, in virtual time
//	result, _ := dev.Collect(ctx, id)
package core

import (
	"context"
	"fmt"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/cluster"
	"pdagent/internal/compress"
	"pdagent/internal/device"
	"pdagent/internal/gateway"
	"pdagent/internal/mas"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// HostSpec describes one network site in a SimWorld.
type HostSpec struct {
	// Flavour is the MAS codec flavour at this site ("aglets" or
	// "voyager").
	Flavour string
	// Bank, when set, is registered at the site and exposed through
	// SimWorld.Banks for assertions and baselines.
	Bank *services.Bank
	// Install registers any further service agents.
	Install func(reg *services.Registry)
}

// SimConfig configures a simulated world.
type SimConfig struct {
	// Seed drives all simulated randomness (jitter, loss).
	Seed int64
	// GatewayAddrs lists the gateways to create (default: ["gw-0"]).
	GatewayAddrs []string
	// Hosts maps site addresses to their spec (default: two banks,
	// "bank-a" aglets and "bank-b" voyager, as in the paper's
	// e-banking evaluation).
	Hosts map[string]HostSpec
	// Wireless and Wired override the link models (defaults:
	// netsim.DefaultWirelessLink / DefaultWiredLink).
	Wireless, Wired *netsim.Link
	// KeyBits sizes gateway RSA keys (default pisec.DefaultKeyBits;
	// tests use 1024 for speed).
	KeyBits int
	// Journal gives every MAS (hosts and the gateways' embedded home
	// servers) a write-ahead agent journal, enabling CrashHost /
	// RestartHost crash-recovery drills. The per-address stores are
	// exposed through SimWorld.Journals.
	Journal bool
	// Cluster federates the gateways into one clustered middle tier
	// (DESIGN.md §6): each gateway gets a cluster.Node seeded with the
	// full gateway list, dispatches route to their consistent-hash home
	// member, agent locations replicate, results relay to the edge, and
	// the central directory serves the live membership view. Drive
	// heartbeats manually with SimWorld.TickCluster (deterministic);
	// kill and recover members with CrashGateway / RestartGateway.
	Cluster bool
	// Mailbox enables the disconnection-tolerant device sessions
	// (DESIGN.md §7) on every gateway: results, status changes and
	// management notifications are enqueued into durable per-device
	// mailboxes and delivered through /pdagent/mailbox/poll. The per-gateway
	// stores are exposed through SimWorld.Mailboxes and survive
	// CrashGateway / RestartGateway, like the journals.
	Mailbox bool
	// ResultTTL expires stored result documents (0 keeps them forever);
	// enforced by Gateway.Sweep. Requires Mailbox.
	ResultTTL time.Duration
	// Replicate enables warm-standby replication (DESIGN.md §10) on
	// clustered worlds: every gateway streams its journal and mailbox
	// commits to its ring successor, and on SWIM eviction the standby
	// fences the dead member and promotes — adopted agents resume,
	// mailboxes import, the location directory re-points. Drive it with
	// TickCluster; destroy a member completely with
	// CrashGatewayLosingDisk. Requires Cluster (and typically Journal
	// and/or Mailbox — an empty stream replicates nothing).
	Replicate bool
	// ReplMode is the replication ack discipline (default
	// repl.ModeAsync; repl.ModeSemiSync acks each commit on two members).
	ReplMode repl.Mode
}

// Promotion records one completed §10 failover: By adopted Dead's
// replicated state after its eviction.
type Promotion struct {
	Dead, By          string
	Agents, Mailboxes int
}

// SimWorld is a fully wired simulated deployment.
type SimWorld struct {
	Net       *netsim.Network
	Queue     *netsim.Queue
	Gateways  []*gateway.Gateway
	Hosts     map[string]*mas.Server
	Directory *gateway.Directory
	// Banks indexes the bank service state by host address (when the
	// default hosts are used), for assertions and baselines.
	Banks map[string]*services.Bank
	// Journals holds the per-address agent journals when
	// SimConfig.Journal is set (keys: host and gateway addresses).
	Journals map[string]rms.Store
	// Nodes are the gateways' cluster nodes, aligned with Gateways
	// (nil entries when SimConfig.Cluster is off).
	Nodes []*cluster.Node
	// Mailboxes holds the per-gateway mailbox stores when
	// SimConfig.Mailbox is set; they survive CrashGateway /
	// RestartGateway like the journals do.
	Mailboxes map[string]rms.Store
	// Repls are the gateways' replication peers, aligned with Gateways
	// (nil entries when SimConfig.Replicate is off).
	Repls []*repl.Peer

	cfg         SimConfig
	keyBits     int
	hostSpecs   map[string]HostSpec       // retained for RestartHost
	gwKeys      map[string]*pisec.KeyPair // retained for RestartGateway
	crashedGW   map[string]bool           // members whose process is down
	clusterKey  string                    // shared cluster secret (Cluster worlds)
	deviceZones map[string]string         // device owner -> private aliased zone
	evictions   []string                  // evicted addrs pending the promotion check
	promotions  []Promotion               // completed failovers, in order
}

// CentralAddr is the simulated central server's address.
const CentralAddr = "central-0"

// NewSimWorld assembles a simulated deployment.
func NewSimWorld(cfg SimConfig) (*SimWorld, error) {
	if len(cfg.GatewayAddrs) == 0 {
		cfg.GatewayAddrs = []string{"gw-0"}
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = pisec.DefaultKeyBits
	}
	w := &SimWorld{
		Net:         netsim.New(cfg.Seed),
		Queue:       &netsim.Queue{},
		Hosts:       map[string]*mas.Server{},
		Banks:       map[string]*services.Bank{},
		Journals:    map[string]rms.Store{},
		Mailboxes:   map[string]rms.Store{},
		cfg:         cfg,
		keyBits:     cfg.KeyBits,
		hostSpecs:   map[string]HostSpec{},
		gwKeys:      map[string]*pisec.KeyPair{},
		crashedGW:   map[string]bool{},
		deviceZones: map[string]string{},
	}
	journalFor := func(addr string) rms.Store {
		if !cfg.Journal {
			return nil
		}
		store := rms.NewMemStore("journal-"+addr, 0)
		w.Journals[addr] = store
		return store
	}
	wireless := netsim.DefaultWirelessLink()
	if cfg.Wireless != nil {
		wireless = *cfg.Wireless
	}
	wired := netsim.DefaultWiredLink()
	if cfg.Wired != nil {
		wired = *cfg.Wired
	}
	w.Net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, wireless)
	w.Net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, wired)

	if cfg.Cluster {
		// One shared cluster secret for the whole world: members accept
		// each other's heartbeats/forwards, and anything without the
		// token (e.g. a simulated rogue client) is refused.
		secret, err := pisec.NewSubscriptionSecret()
		if err != nil {
			return nil, err
		}
		w.clusterKey = fmt.Sprintf("%x", secret)
	}

	// Central directory. Clustered worlds serve the live membership
	// view (the §3.5 list follows joins, leaves and evictions); the
	// static list remains the fallback.
	w.Directory = gateway.NewDirectory(cfg.GatewayAddrs...)
	if cfg.Cluster {
		w.Directory.SetProvider(w.liveGatewayView)
	}
	w.Net.AddHost(CentralAddr, netsim.ZoneWired, w.Directory.Handler())

	// Gateways.
	for i, addr := range cfg.GatewayAddrs {
		kp, err := pisec.GenerateKeyPair(cfg.KeyBits)
		if err != nil {
			return nil, err
		}
		w.gwKeys[addr] = kp
		gw, node, peer, err := w.buildGateway(i, addr, kp, journalFor(addr), 0)
		if err != nil {
			return nil, err
		}
		w.Net.AddHost(addr, netsim.ZoneWired, gw.Handler())
		w.Gateways = append(w.Gateways, gw)
		w.Nodes = append(w.Nodes, node)
		w.Repls = append(w.Repls, peer)
	}

	// Network hosts.
	hosts := cfg.Hosts
	if hosts == nil {
		hosts = DefaultHosts()
	}
	for addr, spec := range hosts {
		w.hostSpecs[addr] = spec
		if spec.Bank != nil {
			w.Banks[addr] = spec.Bank
		}
		srv, err := w.buildHost(addr, spec, journalFor(addr))
		if err != nil {
			return nil, err
		}
		w.Net.AddHost(addr, netsim.ZoneWired, srv.Handler())
		w.Hosts[addr] = srv
	}
	return w, nil
}

// buildGateway assembles one gateway (and its cluster node and
// replication peer when the world is clustered); index i orders it
// among cfg.GatewayAddrs. epoch is the member's starting fencing epoch
// (non-zero when a restarted member re-admits itself past its own
// fence).
func (w *SimWorld) buildGateway(i int, addr string, kp *pisec.KeyPair, journal rms.Store, epoch uint64) (*gateway.Gateway, *cluster.Node, *repl.Peer, error) {
	var peers []string
	for j, a := range w.cfg.GatewayAddrs {
		if j != i {
			peers = append(peers, a)
		}
	}
	var node *cluster.Node
	if w.cfg.Cluster {
		nodeCfg := cluster.Config{
			Self:      addr,
			Seeds:     w.cfg.GatewayAddrs,
			Transport: w.Net.Transport(netsim.ZoneWired),
			Secret:    w.clusterKey,
			Epoch:     epoch,
		}
		if w.cfg.Replicate {
			// Evictions queue for TickCluster (which holds the journey
			// context) rather than promoting inline mid-Tick.
			nodeCfg.OnEvict = func(dead string) {
				w.evictions = append(w.evictions, dead)
			}
		}
		node = cluster.NewNode(nodeCfg)
	}
	var peer *repl.Peer
	if node != nil && w.cfg.Replicate {
		peer = repl.NewPeer(repl.Config{
			Self:      addr,
			Transport: w.Net.Transport(netsim.ZoneWired),
			Stamp:     node.StampIdentity,
			Authorize: node.Authorized,
			OriginOf:  cluster.Origin,
			StandbyFn: func() string { return node.StandbyFor(addr) },
			Mode:      w.cfg.ReplMode,
		})
	}
	gwCfg := gateway.Config{
		Addr:      addr,
		KeyPair:   kp,
		Transport: w.Net.Transport(netsim.ZoneWired),
		Spawn:     w.Queue.Go,
		Peers:     peers,
		Journal:   journal,
		Cluster:   node,
		Repl:      peer,
	}
	if w.cfg.Mailbox {
		// The mailbox store outlives the gateway process (like the
		// journal): RestartGateway reattaches the replacement instance
		// to the same store, so undelivered mail survives the crash.
		store, ok := w.Mailboxes[addr]
		if !ok {
			store = rms.NewMemStore("mailbox-"+addr, 0)
			w.Mailboxes[addr] = store
		}
		gwCfg.Mailbox = &gateway.MailboxConfig{Store: store, ResultTTL: w.cfg.ResultTTL}
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := RegisterStandardApps(gw); err != nil {
		return nil, nil, nil, err
	}
	return gw, node, peer, nil
}

// liveGatewayView serves the central directory in clustered worlds:
// the first running member's live view (members answer for each other
// through gossip, so any one view is the fleet view).
func (w *SimWorld) liveGatewayView() []string {
	for i, gw := range w.Gateways {
		if w.crashedGW[gw.Addr()] || w.Nodes[i] == nil {
			continue
		}
		if addrs := w.Nodes[i].Membership().AliveAddrs(); len(addrs) > 0 {
			return addrs
		}
	}
	return nil
}

// buildHost assembles one network site's MAS over the world fabric.
// The service registry is rebuilt from the spec each time, so a
// restarted host reattaches to the same service state (the bank's
// ledger survives a MAS process crash, like a real database would).
func (w *SimWorld) buildHost(addr string, spec HostSpec, journal rms.Store) (*mas.Server, error) {
	reg := services.NewRegistry()
	if spec.Bank != nil {
		reg.Register(spec.Bank.Services()...)
	}
	if spec.Install != nil {
		spec.Install(reg)
	}
	codec, err := atp.ByName(spec.Flavour)
	if err != nil {
		return nil, fmt.Errorf("core: host %s: %w", addr, err)
	}
	masCfg := mas.Config{
		Addr:      addr,
		Codec:     codec,
		Transport: w.Net.Transport(netsim.ZoneWired),
		Services:  reg,
		Spawn:     w.Queue.Go,
		Journal:   journal,
	}
	if w.cfg.Cluster {
		// Network hosts are not cluster members, but they relay their
		// location events to each agent's home gateway, which folds them
		// into the replicated directory — so mid-itinerary hops between
		// hosts are visible fleet-wide, not just the gateway-side ones.
		// Best-effort: a missed update costs a longer chase, and the
		// home gateway's own hooks re-anchor the pointer chain.
		masCfg.OnAgentMove = cluster.LocationRelay(w.Net.Transport(netsim.ZoneWired), addr, w.clusterKey)
	}
	srv, err := mas.NewServer(masCfg)
	if err != nil {
		return nil, err
	}
	return srv, nil
}

// CrashHost simulates a host process crash: the MAS abandons all
// in-memory state and queued work, and the address drops off the
// network. Only the journal (when the world has one) survives; bring
// the site back with RestartHost.
func (w *SimWorld) CrashHost(addr string) error {
	srv, ok := w.Hosts[addr]
	if !ok {
		return fmt.Errorf("core: no host %q to crash", addr)
	}
	srv.Kill()
	return w.Net.KillHost(addr)
}

// RetryParked re-attempts parked transfers on every MAS in the world —
// network hosts and the gateways' embedded home servers. Journaled
// worlds park agents on persistent transfer failure instead of failing
// them home; call this after healing a partition (or reviving a host)
// to set those journeys moving again, then Run the world.
func (w *SimWorld) RetryParked(ctx context.Context) int {
	n := 0
	for _, srv := range w.Hosts {
		n += srv.RetryParked(ctx)
	}
	for _, gw := range w.Gateways {
		n += gw.MAS().RetryParked(ctx)
	}
	return n
}

// RestartHost replaces a crashed host with a fresh MAS over the same
// journal and service state, revives the address, and resumes
// journaled agents. It returns the number of journeys resumed. ctx
// carries the journey clock that resumed agents keep charging.
func (w *SimWorld) RestartHost(ctx context.Context, addr string) (int, error) {
	spec, ok := w.hostSpecs[addr]
	if !ok {
		return 0, fmt.Errorf("core: no host %q to restart", addr)
	}
	srv, err := w.buildHost(addr, spec, w.Journals[addr])
	if err != nil {
		return 0, err
	}
	w.Net.AddHost(addr, netsim.ZoneWired, srv.Handler())
	if err := w.Net.ReviveHost(addr); err != nil {
		return 0, err
	}
	w.Hosts[addr] = srv
	if w.Journals[addr] == nil {
		return 0, nil
	}
	return srv.Resume(ctx)
}

// TickCluster runs one heartbeat round on every running member's node
// (deterministic member order) and returns the total peer answers —
// drive it between Run calls to advance failure suspicion, eviction
// and gossip convergence in virtual time.
func (w *SimWorld) TickCluster(ctx context.Context) int {
	total := 0
	for i, gw := range w.Gateways {
		if w.Nodes[i] == nil || w.crashedGW[gw.Addr()] {
			continue
		}
		total += w.Nodes[i].Tick(ctx)
	}
	// Promote over freshly evicted members (replicated worlds): the
	// member holding the dead member's replica fences it and adopts.
	for len(w.evictions) > 0 {
		dead := w.evictions[0]
		w.evictions = w.evictions[1:]
		w.promoteOver(ctx, dead)
	}
	// Ship buffered commits (the async-mode driver; also retries
	// whatever a degraded semi-sync stream buffered).
	for i, p := range w.Repls {
		if p == nil || w.crashedGW[w.Gateways[i].Addr()] {
			continue
		}
		p.Flush(ctx)
	}
	return total
}

// promoteOver runs the §10 failover on one observed eviction. The
// eviction may be aged out by any member, but only the one actually
// holding dead's replica promotes (the ring successor that was its
// standby) — and Take consumes the replica, so repeated observations
// of the same eviction yield exactly one adoption.
func (w *SimWorld) promoteOver(ctx context.Context, dead string) {
	i := -1
	for j, p := range w.Repls {
		if p != nil && !w.crashedGW[w.Gateways[j].Addr()] && p.Has(dead) {
			i = j
			break
		}
	}
	if i < 0 {
		return
	}
	// Fence first: from this heartbeat on, the ex-primary's streams and
	// dispatches are refused fleet-wide, so adoption cannot race a
	// zombie still answering requests.
	w.Nodes[i].RaiseFence(dead)
	replicas := w.Repls[i].Take(dead)
	var journal, mailbox rms.Store
	if r := replicas[repl.RoleJournal]; r != nil {
		journal = r.NewStore("replica-journal-" + dead)
	}
	if r := replicas[repl.RoleMailbox]; r != nil {
		mailbox = r.NewStore("replica-mailbox-" + dead)
	}
	agents, mailboxes, err := w.Gateways[i].PromoteFrom(ctx, dead, journal, mailbox)
	if err != nil {
		// Keep the world running: a failed adoption leaves the replica
		// consumed but the fence up, which is still safer than a
		// half-fenced split brain.
		return
	}
	w.promotions = append(w.promotions, Promotion{
		Dead: dead, By: w.Gateways[i].Addr(), Agents: agents, Mailboxes: mailboxes,
	})
}

// Promotions lists completed §10 failovers in order.
func (w *SimWorld) Promotions() []Promotion {
	return append([]Promotion(nil), w.promotions...)
}

// CrashGateway simulates a gateway process crash: the embedded MAS
// dies with all in-memory state, the address drops off the network and
// the member stops heartbeating (peers will suspect and evict it).
// Only the journal survives; bring the member back with
// RestartGateway.
func (w *SimWorld) CrashGateway(addr string) error {
	i := w.gatewayIndex(addr)
	if i < 0 {
		return fmt.Errorf("core: no gateway %q to crash", addr)
	}
	w.Gateways[i].MAS().Kill()
	w.crashedGW[addr] = true
	return w.Net.KillHost(addr)
}

// CrashGatewayLosingDisk is CrashGateway plus total disk loss: the
// member's journal and mailbox stores are destroyed, so nothing
// local survives — only the standby's replica (and the fencing epoch
// gossiped after eviction) can carry its agents and mailboxes forward.
// This is the failure warm-standby replication exists for; a later
// RestartGateway brings the member back blank.
func (w *SimWorld) CrashGatewayLosingDisk(addr string) error {
	if err := w.CrashGateway(addr); err != nil {
		return err
	}
	delete(w.Journals, addr)
	delete(w.Mailboxes, addr)
	return nil
}

// RestartGateway replaces a crashed gateway with a fresh instance over
// the same key pair and journal, rejoins it to the cluster (a fresh
// node re-bootstraps from the seed list) and resumes journaled agent
// journeys. It returns the number of journeys resumed. Subscriptions
// issued by the dead instance are lost — devices re-subscribe, as with
// a real middle-tier restart.
func (w *SimWorld) RestartGateway(ctx context.Context, addr string) (int, error) {
	i := w.gatewayIndex(addr)
	if i < 0 {
		return 0, fmt.Errorf("core: no gateway %q to restart", addr)
	}
	// A member that was fenced after eviction re-admits itself by
	// adopting the fleet's fence for its address as its own epoch —
	// the legitimate-restart half of the fencing rule (epoch >= fence
	// passes; only the zombie still claiming the old epoch is refused).
	var epoch uint64
	for j, n := range w.Nodes {
		if n == nil || w.Gateways[j].Addr() == addr || w.crashedGW[w.Gateways[j].Addr()] {
			continue
		}
		if f := n.FenceOf(addr); f > epoch {
			epoch = f
		}
	}
	gw, node, peer, err := w.buildGateway(i, addr, w.gwKeys[addr], w.Journals[addr], epoch)
	if err != nil {
		return 0, err
	}
	w.Net.AddHost(addr, netsim.ZoneWired, gw.Handler())
	if err := w.Net.ReviveHost(addr); err != nil {
		return 0, err
	}
	w.Gateways[i] = gw
	w.Nodes[i] = node
	w.Repls[i] = peer
	delete(w.crashedGW, addr)
	if w.Journals[addr] == nil {
		return 0, nil
	}
	return gw.MAS().Resume(ctx)
}

func (w *SimWorld) gatewayIndex(addr string) int {
	for i, gw := range w.Gateways {
		if gw.Addr() == addr {
			return i
		}
	}
	return -1
}

// DefaultHosts returns the paper's evaluation topology: two bank sites
// on different MAS brands.
func DefaultHosts() map[string]HostSpec {
	mk := func(addr string) *services.Bank {
		return services.NewBank(addr, map[string]int64{"alice": 10_000, "bob": 5_000})
	}
	return map[string]HostSpec{
		"bank-a": {Flavour: "aglets", Bank: mk("bank-a")},
		"bank-b": {Flavour: "voyager", Bank: mk("bank-b")},
	}
}

// GatewayAddrs lists the world's gateway addresses.
func (w *SimWorld) GatewayAddrs() []string {
	out := make([]string, len(w.Gateways))
	for i, g := range w.Gateways {
		out[i] = g.Addr()
	}
	return out
}

// NewDevice creates a handheld platform attached to the wireless side
// of the world, preloaded with the gateway list. Each device gets its
// own wireless zone (same link model as the shared one), so
// DisconnectDevice / ReconnectDevice can churn one device's uplink
// without touching its neighbours.
func (w *SimWorld) NewDevice(owner string) (*device.Platform, error) {
	zone, ok := w.deviceZones[owner]
	if !ok {
		zone = "wl:" + owner
		w.Net.AliasZone(zone, netsim.ZoneWireless)
		w.deviceZones[owner] = zone
	}
	p, err := device.NewPlatform(device.Config{
		Owner:     owner,
		Transport: w.Net.Transport(zone),
		Codec:     compress.LZSS,
		Secure:    true,
		Central:   CentralAddr,
	})
	if err != nil {
		return nil, err
	}
	if err := p.SetGateways(w.GatewayAddrs()); err != nil {
		return nil, err
	}
	return p, nil
}

// DisconnectDevice cuts one device's wireless uplink: its requests
// charge the uplink delay and fail like timeouts (the rest of the world
// keeps running). The device's gateway mailbox keeps accumulating
// whatever happens meanwhile.
func (w *SimWorld) DisconnectDevice(owner string) error {
	zone, ok := w.deviceZones[owner]
	if !ok {
		return fmt.Errorf("core: no device %q to disconnect", owner)
	}
	w.Net.PartitionZones(zone, netsim.ZoneWired)
	return nil
}

// ReconnectDevice heals a device's uplink; the application typically
// follows with OpenSession to drain queued work and collect mail.
func (w *SimWorld) ReconnectDevice(owner string) error {
	zone, ok := w.deviceZones[owner]
	if !ok {
		return fmt.Errorf("core: no device %q to reconnect", owner)
	}
	w.Net.HealZones(zone, netsim.ZoneWired)
	return nil
}

// NewJourney returns a context carrying a fresh virtual clock, plus
// the clock for reading elapsed online time.
func (w *SimWorld) NewJourney() (context.Context, *netsim.Clock) {
	clock := netsim.NewClock()
	return netsim.WithClock(context.Background(), clock), clock
}

// Run drains the world's task queue — every dispatched agent runs its
// journey to completion (or stranding) in deterministic order. It
// returns the number of tasks executed.
func (w *SimWorld) Run() int { return w.Queue.Drain() }

// Close releases every gateway's outbound worker pool. Long-lived
// embedders (and tests that chase agent status, which lazily starts
// the pools) should defer it; one-shot experiment worlds may skip it.
func (w *SimWorld) Close() {
	for _, gw := range w.Gateways {
		gw.Close()
	}
}

// RunUntilResult runs the world and collects the result for an agent,
// a convenience wrapper for the common dispatch→run→collect pattern.
func (w *SimWorld) RunUntilResult(ctx context.Context, dev *device.Platform, agentID string) (*wire.ResultDocument, error) {
	w.Run()
	return dev.Collect(ctx, agentID)
}

// Transport exposes a zone-bound round-tripper (for baselines and
// tests).
func (w *SimWorld) Transport(zone string) transport.RoundTripper {
	return w.Net.Transport(zone)
}
