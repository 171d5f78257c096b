package cluster

import (
	"context"
	"sort"
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

// Failure-detector tick budgets: a member without evidence for
// suspectAfter ticks is suspected, for evictAfter ticks evicted, and
// its tombstone ages out after 3*evictAfter.
const (
	suspectAfter = 3
	evictAfter   = 8
)

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
	// Epoch is this member's starting fencing epoch (DESIGN.md §10). A
	// fresh member starts at 0; a member restarting after its standby
	// promoted (and fenced the old instance) must start at or above the
	// fence to be re-admitted to cluster writes.
	Epoch uint64
	// OnEvict fires (outside the membership lock) when local suspicion
	// evicts a member — the warm-standby promotion hook. It does NOT
	// fire for graceful leaves or evictions learned from gossip: only
	// the member that aged the suspect out itself promotes, so a view
	// that merely heard about the eviction does not double-promote.
	OnEvict func(addr string)
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// Node is one gateway's cluster runtime, mounted under /cluster/ on the
// gateway mux: its identity (stamped on every request it sends, vetted
// on every request it receives), the gossiping failure detector, the
// placement ring, the location directory and the forwarder.
type Node struct {
	cfg  Config
	locs *Locations
	mux  *transport.Mux

	// epoch is this instance's fencing epoch; selfFenced latches once
	// the node learns a peer fenced it (it is a zombie).
	epoch      atomic.Uint64
	selfFenced atomic.Bool
	log        *metrics.Logger

	// mu guards the membership view below (membership.go).
	mu       sync.Mutex
	members  map[string]*memberInfo // excludes self
	tick     int
	selfInc  int
	selfLoad Load // cached at heartbeat time; see LoadOf
	leaving  bool
	version  uint64 // bumped whenever the placement-relevant view changes
	// fences maps a member address to its fencing epoch: requests from
	// that address carrying a lower epoch are refused everywhere. Raised
	// by a promoted standby, spread by max-merge gossip, never lowered.
	fences  map[string]uint64
	loadFn  func() Load          // nil: zero load
	usageFn func() []TenantUsage // nil: no usage rows

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
		cfg:     cfg,
		locs:    NewLocations(),
		log:     metrics.NewLogger("cluster", sink),
		members: map[string]*memberInfo{},
		version: 1,
		fences:  map[string]uint64{},
	}
	n.epoch.Store(cfg.Epoch)
	for _, s := range cfg.Seeds {
		if s != "" && s != cfg.Self {
			n.members[s] = &memberInfo{state: StateAlive}
		}
	}
	m := transport.NewMux()
	m.HandleFunc("/cluster/heartbeat", n.handleHeartbeat)
	m.HandleFunc("/cluster/loc", n.handleLoc)
	n.mux = m
	return n
}

// Self returns the advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Locations exposes the location directory.
func (n *Node) Locations() *Locations { return n.locs }

// Epoch returns this instance's fencing epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Stamp adds this member's identity — the cluster token, its address
// and its fencing epoch — to an outgoing intra-cluster request.
func (n *Node) Stamp(req *transport.Request) { stamp(req, n.cfg.Self, n.cfg.Secret, n.Epoch()) }

// Authorized reports whether req carries the shared cluster secret —
// the ONLY acceptable proof that a request on a /cluster/ endpoint
// came from a peer member (the hop-chain header is client-settable
// and must never be trusted on its own) — AND that the origin it names
// claims a fencing epoch not below the fence raised for that address.
// The fence check is what stops a zombie ex-primary (dead to the
// cluster, standby promoted in its place) from double-delivering
// through /cluster/* writes.
func (n *Node) Authorized(req *transport.Request) bool {
	ok, _ := vet(req, n.cfg.Secret, n.FenceOf)
	return ok
}

// Origin returns the member an authorized request came from.
func (n *Node) Origin(req *transport.Request) string { return origin(req) }

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

// StandbyFor returns the warm-standby member for addr: the cyclic
// successor of addr in the sorted list of live members (addr itself
// included whether or not it is still alive, so the assignment is
// stable across its death). Returns "" when no other member is alive.
// Every member computes the same answer from a converged view, so
// exactly one live member considers itself the standby of each other
// member.
func (n *Node) StandbyFor(addr string) string {
	alive := n.AliveAddrs()
	sort.Strings(alive)
	i := sort.SearchStrings(alive, addr) // addr's place in the cycle
	for j := range alive {
		if cand := alive[(i+j)%len(alive)]; cand != addr && cand != "" {
			return cand
		}
	}
	return ""
}

// Handler serves the node's /cluster/ endpoints; the gateway mounts it
// alongside its own federation endpoints.
func (n *Node) Handler() transport.Handler { return n.mux }

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

// currentRing returns the ring over the live member view, rebuilt only
// when membership changed.
func (n *Node) currentRing() *Ring {
	v := n.Version()
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	if n.ring == nil || n.ringVer != v {
		n.ring = NewRing(n.AliveAddrs())
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
		if !n.Alive(addr) {
			return true
		}
		load, ok := n.LoadOf(addr)
		return ok && load.QueueDepth+load.InFlight > SpillThreshold
	})
}

// PublishLocation applies one location event locally and pushes it,
// stamped like every other intra-cluster write, to every live peer
// (best-effort — heartbeat piggyback repairs missed pushes). MAS
// arrival/departure hooks call this synchronously, so by the time a
// transfer is acked the fleet-wide directory already points at the
// receiver.
func (n *Node) PublishLocation(ctx context.Context, loc Location) {
	if !n.locs.Update(loc) {
		return // stale; nothing new to spread
	}
	doc := EncodeUpdate(loc)
	for _, addr := range n.AliveAddrs() {
		if addr == n.cfg.Self {
			continue
		}
		req := &transport.Request{Path: "/cluster/loc", Body: doc}
		n.Stamp(req)
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

// handleLoc is the /cluster/loc push endpoint: member pushes and masd
// relays both land here, and both pass the same vet as any other
// cluster write.
func (n *Node) handleLoc(_ context.Context, req *transport.Request) *transport.Response {
	if !n.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "cluster: missing or wrong cluster token, or fenced origin")
	}
	root, err := kxml.ParseBytes(req.Body)
	if err != nil || root.Name != "cluster-view" {
		return transport.Errorf(transport.StatusBadRequest, "cluster: bad location update")
	}
	n.locs.mergeFrom(root)
	return transport.OK(nil)
}
