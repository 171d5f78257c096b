package cluster

import (
	"context"
	"crypto/subtle"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/kxml"
	"pdagent/internal/metrics"
	"pdagent/internal/transport"
)

// SpillThreshold is the load (queue depth + in-flight) above
// which placement skips a member and spills its keys to the next ring
// position.
const SpillThreshold = 256

// Config configures a cluster Node.
type Config struct {
	// Self is this member's advertised address (the gateway's Addr).
	Self string
	// Seeds bootstrap membership (the static gateway list).
	Seeds []string
	// Transport carries heartbeats, location pushes and forwarded
	// requests between members.
	Transport transport.RoundTripper
	// Secret is the shared cluster credential: every intra-cluster
	// request (heartbeat, location push, forwarded dispatch/result)
	// carries it, and every /cluster/ endpoint refuses requests
	// without it. The cluster endpoints share the public listener
	// with device traffic and transport headers are client-settable,
	// so WITHOUT a secret the cluster is open — cmd/gateway therefore
	// refuses to federate with an empty -cluster-secret; only trusted
	// single-process fabrics (simulations, benchmarks) may leave it
	// empty.
	Secret string
	// SuspectAfter / EvictAfter are failure-detector tick budgets (see
	// MembershipConfig).
	SuspectAfter, EvictAfter int
	// LoadFn reports local load for heartbeats (the gateway wires its
	// registry's in-flight count and the MAS queue depth here).
	LoadFn func() Load
	// Epoch is this member's starting fencing epoch (DESIGN.md §10). A
	// fresh member starts at 0; a member restarting after its standby
	// promoted (and fenced the old instance) must start at or above the
	// fence to be re-admitted to cluster writes.
	Epoch uint64
	// OnEvict fires when local suspicion evicts a member — the
	// warm-standby promotion hook (see MembershipConfig.OnEvict).
	OnEvict func(addr string)
	// NoLocationPush disables the synchronous per-event push of
	// location updates to peers; replicas then converge only through
	// heartbeat piggyback. Status chases fall back to the home member's
	// pointer chain either way, so this trades chase latency for
	// admission-path round trips (benchmarks use it to isolate
	// forwarding cost).
	NoLocationPush bool
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// Node is one gateway's cluster runtime: membership + placement ring +
// location directory + forwarder, mounted under /cluster/ on the
// gateway mux.
type Node struct {
	cfg  Config
	mem  *Membership
	locs *Locations
	fwd  *Forwarder
	mux  *transport.Mux

	// epoch is this instance's fencing epoch; selfFenced latches once
	// the node learns a peer fenced it (it is a zombie).
	epoch      atomic.Uint64
	selfFenced atomic.Bool
	log        *metrics.Logger

	ringMu  sync.Mutex
	ring    *Ring
	ringVer uint64

	tickMu   sync.Mutex
	stopTick chan struct{}
}

// NewNode builds a node. The view starts as the seed list, so
// placement and the live directory work before the first heartbeat.
func NewNode(cfg Config) *Node {
	// The logger keeps the Oncef latch; it writes to cfg.Logf (or
	// nowhere — quiet simulated nodes stay quiet).
	sink := cfg.Logf
	if sink == nil {
		sink = func(string, ...any) {}
	}
	n := &Node{
		cfg:  cfg,
		locs: NewLocations(),
		fwd:  NewForwarder(cfg.Self, cfg.Transport, cfg.Secret),
		log:  metrics.NewLogger("cluster", sink),
	}
	n.epoch.Store(cfg.Epoch)
	n.fwd.SetEpochFn(n.Epoch)
	n.mem = NewMembership(MembershipConfig{
		Self:         cfg.Self,
		Seeds:        cfg.Seeds,
		Transport:    cfg.Transport,
		Secret:       cfg.Secret,
		SuspectAfter: cfg.SuspectAfter,
		EvictAfter:   cfg.EvictAfter,
		LoadFn:       cfg.LoadFn,
		EpochFn:      n.Epoch,
		OnEvict:      cfg.OnEvict,
		OnFenced:     n.noteFenced,
		Logf:         cfg.Logf,
	})
	n.mem.locs = n.locs
	m := transport.NewMux()
	m.HandleFunc("/cluster/heartbeat", n.mem.HandleHeartbeat)
	m.HandleFunc("/cluster/loc", n.handleLoc)
	n.mux = m
	return n
}

// Self returns the advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// SetLoadFunc installs the local load reporter (gateway wiring).
func (n *Node) SetLoadFunc(fn func() Load) { n.mem.SetLoadFunc(fn) }

// SetTenantUsageFunc installs the per-tenant usage reporter gossiped
// on heartbeats.
func (n *Node) SetTenantUsageFunc(fn func() []TenantUsage) { n.mem.SetTenantUsageFunc(fn) }

// RemoteTenantUsage sums the per-tenant usage last gossiped by the
// rest of the cluster, keyed by tenant label.
func (n *Node) RemoteTenantUsage() map[string]TenantUsage { return n.mem.RemoteTenantUsage() }

// Membership exposes the failure detector (directory endpoint, tests).
func (n *Node) Membership() *Membership { return n.mem }

// Locations exposes the location directory.
func (n *Node) Locations() *Locations { return n.locs }

// Forwarder exposes the cross-member request proxy.
func (n *Node) Forwarder() *Forwarder { return n.fwd }

// Authorized reports whether req carries the shared cluster secret —
// the ONLY acceptable proof that a request on a /cluster/ endpoint
// came from a peer member (the hop-chain header is client-settable
// and must never be trusted on its own) — AND, when the request names
// its origin member, that the origin's claimed fencing epoch is not
// below the fence raised for that address. The fence check is what
// stops a zombie ex-primary (dead to the cluster, standby promoted in
// its place) from double-delivering through /cluster/* writes.
func (n *Node) Authorized(req *transport.Request) bool {
	token := req.GetHeader(tokenHeader)
	if subtle.ConstantTimeCompare([]byte(token), []byte(n.cfg.Secret)) != 1 {
		return false
	}
	if origin := req.GetHeader(originHeader); origin != "" {
		if n.mem.FenceOf(origin) > requestEpoch(req) {
			return false
		}
	}
	return true
}

// Epoch returns this instance's fencing epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// StampIdentity adds the cluster token plus this member's address and
// fencing epoch to an outgoing intra-cluster request — the same
// identity heartbeats carry, so replication streams are subject to the
// same zombie fencing.
func (n *Node) StampIdentity(req *transport.Request) {
	req.SetHeader(tokenHeader, n.cfg.Secret)
	req.SetHeader(originHeader, n.cfg.Self)
	req.SetHeader(epochHeader, strconv.FormatUint(n.Epoch(), 10))
}

// Fenced reports whether this node has learned it is a fenced zombie:
// a peer refused its heartbeat with a fence epoch above its own, or
// gossip delivered a fence row for its address. A fenced gateway must
// refuse dispatches (it no longer owns its state — the standby does).
func (n *Node) Fenced() bool { return n.selfFenced.Load() }

func (n *Node) noteFenced(epoch uint64) {
	if n.epoch.Load() >= epoch {
		return // we already adopted past the fence (legitimate restart)
	}
	n.selfFenced.Store(true)
	n.log.Oncef("fenced", "cluster %s: fenced at epoch %d — a standby owns this member's state; refusing writes", n.cfg.Self, epoch)
}

// RaiseFence fences addr at a new, higher epoch and returns it. The
// promoting standby calls it before adopting the dead member's
// replica; gossip spreads the fence fleet-wide.
func (n *Node) RaiseFence(addr string) uint64 { return n.mem.RaiseFence(addr) }

// FenceOf returns addr's current fence epoch (0 if never fenced).
func (n *Node) FenceOf(addr string) uint64 { return n.mem.FenceOf(addr) }

// StandbyFor returns the warm-standby member for addr: the cyclic
// successor of addr in the sorted list of live members (addr itself
// included whether or not it is still alive, so the assignment is
// stable across its death). Returns "" when no other member is alive.
// Every member computes the same answer from a converged view, so
// exactly one live member considers itself the standby of each other
// member.
func (n *Node) StandbyFor(addr string) string {
	members := n.mem.AliveAddrs()
	set := make(map[string]bool, len(members)+1)
	for _, a := range members {
		set[a] = true
	}
	set[addr] = true
	sorted := make([]string, 0, len(set))
	for a := range set {
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	idx := -1
	for i, a := range sorted {
		if a == addr {
			idx = i
			break
		}
	}
	for i := 1; i < len(sorted); i++ {
		cand := sorted[(idx+i)%len(sorted)]
		if cand != addr && set[cand] && cand != "" && n.mem.Alive(cand) {
			return cand
		}
	}
	return ""
}

// Handler serves the node's /cluster/ endpoints; the gateway mounts it
// alongside its own federation endpoints.
func (n *Node) Handler() transport.Handler { return n.mux }

// Tick runs one heartbeat round (deterministic driving for simulated
// worlds; Start wraps it in a wall-clock loop).
func (n *Node) Tick(ctx context.Context) int { return n.mem.Tick(ctx) }

// Start drives Tick on a fixed interval until Stop. Safe to call once.
func (n *Node) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	n.tickMu.Lock()
	defer n.tickMu.Unlock()
	if n.stopTick != nil {
		return
	}
	stop := make(chan struct{})
	n.stopTick = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.Tick(context.Background())
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the Start loop (idempotent).
func (n *Node) Stop() {
	n.tickMu.Lock()
	defer n.tickMu.Unlock()
	if n.stopTick != nil {
		close(n.stopTick)
		n.stopTick = nil
	}
}

// Leave gossips a graceful departure and stops the tick loop: peers
// drop this member from the live view immediately instead of waiting
// for suspicion.
func (n *Node) Leave(ctx context.Context) {
	n.Stop()
	n.mem.Leave(ctx)
}

// currentRing returns the ring over the live member view, rebuilt only
// when membership changed.
func (n *Node) currentRing() *Ring {
	v := n.mem.Version()
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	if n.ring == nil || n.ringVer != v {
		n.ring = NewRing(n.mem.AliveAddrs())
		n.ringVer = v
	}
	return n.ring
}

// Home returns the member that should own key under the current view:
// the consistent-hash owner, skipping members that are not alive or
// whose gossiped load exceeds the spill threshold. Returns "" when the
// view is empty (a draining last member).
func (n *Node) Home(key string) string {
	return n.HomeExcluding(key, nil)
}

// HomeExcluding is Home with extra members ruled out — the dispatch
// path uses it to reroute around a member whose forward just failed
// but whose eviction has not happened yet.
func (n *Node) HomeExcluding(key string, exclude map[string]bool) string {
	return n.currentRing().OwnerSkipping(key, func(addr string) bool {
		if exclude[addr] {
			return true
		}
		if !n.mem.Alive(addr) {
			return true
		}
		load, ok := n.mem.LoadOf(addr)
		return ok && load.QueueDepth+load.InFlight > SpillThreshold
	})
}

// PublishLocation applies one location event locally and pushes it to
// every live peer (best-effort — heartbeat piggyback repairs missed
// pushes). MAS arrival/departure hooks call this synchronously, so by
// the time a transfer is acked the fleet-wide directory already points
// at the receiver.
func (n *Node) PublishLocation(ctx context.Context, loc Location) {
	if !n.locs.Update(loc) {
		return // stale; nothing new to spread
	}
	if n.cfg.NoLocationPush {
		return // heartbeat piggyback only
	}
	doc := EncodeUpdate(loc)
	for _, addr := range n.mem.AliveAddrs() {
		if addr == n.cfg.Self {
			continue
		}
		req := &transport.Request{Path: "/cluster/loc", Body: doc}
		req.SetHeader(tokenHeader, n.cfg.Secret)
		// The push sits on agent admission/arrival paths, so one hung
		// peer must not stall the journey: each push gets its own wall
		// deadline (inert on the inline simulated fabric, where round
		// trips complete before it could fire).
		pushCtx, cancel := context.WithTimeout(ctx, locationPushTimeout)
		_, err := n.cfg.Transport.RoundTrip(pushCtx, addr, req)
		cancel()
		if err != nil && n.cfg.Logf != nil {
			n.cfg.Logf("cluster %s: location push to %s: %v", n.cfg.Self, addr, err)
		}
	}
}

// locationPushTimeout bounds one best-effort location push; heartbeat
// piggyback repairs anything a timed-out push missed.
const locationPushTimeout = 2 * time.Second

// handleLoc is the /cluster/loc push endpoint.
func (n *Node) handleLoc(_ context.Context, req *transport.Request) *transport.Response {
	if !n.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "cluster: missing or wrong cluster token")
	}
	root, err := kxml.ParseBytes(req.Body)
	if err != nil || root.Name != "cluster-view" {
		return transport.Errorf(transport.StatusBadRequest, "cluster: bad location update")
	}
	n.locs.mergeFrom(root)
	return transport.OK(nil)
}
