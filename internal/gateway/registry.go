package gateway

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/tenant"
	"pdagent/internal/wire"
)

// registryShards is the lock-stripe count of a Registry (a power of
// two). 32 shards keep contention negligible for dozens of serving
// goroutines while costing a few hundred bytes of fixed overhead.
const registryShards = 32

// Registry is the gateway's agent/subscription state store: the
// catalogue, per-subscription secrets, replay windows and dispatched
// agent metadata. It is lock-striped — every key (code id, subscription
// key or agent id) is hashed onto one of a fixed set of shards, each
// with its own RWMutex — so requests touching unrelated agents or
// subscriptions never contend.
type Registry struct {
	shards   []registryShard
	agentSeq atomic.Uint64
	// inFlight gauges dispatched-but-unfinished agents; heartbeats
	// gossip it as the cluster's load-aware-spill signal.
	inFlight atomic.Int64
	// ledger splits the inFlight gauge by tenant (admission's quota and
	// weighted-share input).
	ledger *tenant.Ledger
}

// subEntry binds one subscription's dispatch secret to the tenant it
// was claimed under; agents dispatched against the subscription are
// accounted to that tenant.
type subEntry struct {
	key    []byte
	tenant string
}

type registryShard struct {
	mu       sync.RWMutex
	catalog  map[string]catalogEntry // code id -> package
	secrets  map[string]subEntry     // subKey -> secret + owning tenant
	dispatch map[string]*agentMeta   // agent id -> meta
	replay   map[string]*nonceWindow // subKey -> recent dispatch nonces
	// doneQ and goneQ are retention queues: agent ids in completion /
	// tombstone order, so the TTL sweeps pop ripe entries from the
	// front instead of scanning every dispatched agent the gateway has
	// ever seen (stamps are taken under the shard lock, so each queue
	// is monotone). Entries can go stale — the id re-completed, or was
	// released first — and are re-checked against the meta when popped.
	doneQ []string
	goneQ []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{shards: make([]registryShard, registryShards), ledger: tenant.NewLedger()}
	for i := range r.shards {
		s := &r.shards[i]
		s.catalog = map[string]catalogEntry{}
		s.secrets = map[string]subEntry{}
		s.dispatch = map[string]*agentMeta{}
		s.replay = map[string]*nonceWindow{}
	}
	return r
}

// fnv32a is the FNV-1a hash, inlined to keep the shard lookup
// allocation-free on the dispatch hot path.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (r *Registry) shardFor(key string) *registryShard {
	return &r.shards[fnv32a(key)&(registryShards-1)]
}

// subKey joins a code id and owner into one subscription key.
func subKey(codeID, owner string) string { return codeID + "\x00" + owner }

// --- catalogue ----------------------------------------------------------

// catalogEntry is a published package and wire.CodeHash of its source.
type catalogEntry struct {
	pkg  *wire.CodePackage
	hash string
}

// PutPackage publishes (or replaces) a code package in the catalogue,
// hashing its source once for dispatches that name it by reference.
func (r *Registry) PutPackage(cp *wire.CodePackage) {
	e := catalogEntry{pkg: cp, hash: wire.CodeHash(cp.Source)}
	s := r.shardFor(cp.CodeID)
	s.mu.Lock()
	s.catalog[cp.CodeID] = e
	s.mu.Unlock()
}

// Package looks up a catalogue entry and the wire.CodeHash of its
// source.
func (r *Registry) Package(codeID string) (*wire.CodePackage, string, bool) {
	s := r.shardFor(codeID)
	s.mu.RLock()
	e, ok := s.catalog[codeID]
	s.mu.RUnlock()
	return e.pkg, e.hash, ok
}

// Packages returns the whole catalogue, sorted by code id so catalogue
// documents are deterministic regardless of sharding.
func (r *Registry) Packages() []*wire.CodePackage {
	var out []*wire.CodePackage
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, e := range s.catalog {
			out = append(out, e.pkg)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CodeID < out[j].CodeID })
	return out
}

// --- subscriptions ------------------------------------------------------

// SetSecret records the subscription secret for (codeID, owner) and
// binds the subscription to a tenant (tenant.DefaultID unless the
// subscribe named an account): every dispatch against it is admitted
// and accounted under that tenant from then on.
func (r *Registry) SetSecret(codeID, owner string, secret []byte, tenantID string) {
	k := subKey(codeID, owner)
	s := r.shardFor(k)
	s.mu.Lock()
	s.secrets[k] = subEntry{key: secret, tenant: tenantID}
	s.mu.Unlock()
}

// SecretOwner returns the subscription secret for (codeID, owner)
// together with the tenant the subscription is bound to, in one shard
// lookup.
func (r *Registry) SecretOwner(codeID, owner string) ([]byte, string, bool) {
	k := subKey(codeID, owner)
	s := r.shardFor(k)
	s.mu.RLock()
	e, ok := s.secrets[k]
	s.mu.RUnlock()
	return e.key, e.tenant, ok
}

// RememberNonce records a dispatch nonce in the subscription's replay
// window, reporting false if the nonce was already seen (a replayed
// PI). The check-and-insert is atomic under the shard lock, so exactly
// one of any number of concurrent uploads of the same nonce wins.
func (r *Registry) RememberNonce(codeID, owner, nonce string) bool {
	k := subKey(codeID, owner)
	s := r.shardFor(k)
	s.mu.Lock()
	win := s.replay[k]
	if win == nil {
		win = &nonceWindow{seen: map[string]string{}}
		s.replay[k] = win
	}
	fresh := win.remember(nonce)
	s.mu.Unlock()
	return fresh
}

// BindNonce records the agent a nonce's dispatch admitted, making the
// upload idempotent: a device whose dispatch response was lost retries
// the same nonce and receives the original agent id back instead of a
// replay refusal (which would wedge its offline queue forever).
func (r *Registry) BindNonce(codeID, owner, nonce, agentID string) {
	k := subKey(codeID, owner)
	s := r.shardFor(k)
	s.mu.Lock()
	if win := s.replay[k]; win != nil {
		if _, seen := win.seen[nonce]; seen {
			win.seen[nonce] = agentID
		}
	}
	s.mu.Unlock()
}

// ForgetNonce releases a nonce whose admission failed, so the device
// can retry the same PI instead of collecting 409s forever: a consumed
// nonce with no bound agent would otherwise refuse every retry of an
// upload the gateway itself failed to admit.
func (r *Registry) ForgetNonce(codeID, owner, nonce string) {
	k := subKey(codeID, owner)
	s := r.shardFor(k)
	s.mu.Lock()
	if win := s.replay[k]; win != nil {
		if agent, seen := win.seen[nonce]; seen && agent == "" {
			delete(win.seen, nonce)
			for i, n := range win.order {
				if n == nonce {
					win.order = append(win.order[:i], win.order[i+1:]...)
					break
				}
			}
		}
	}
	s.mu.Unlock()
}

// NonceAgent returns the agent id a previously seen nonce admitted
// ("" if the nonce is unknown here, or was seen but its admission
// never completed).
func (r *Registry) NonceAgent(codeID, owner, nonce string) string {
	k := subKey(codeID, owner)
	s := r.shardFor(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if win := s.replay[k]; win != nil {
		return win.seen[nonce]
	}
	return ""
}

// nonceWindow remembers the most recent dispatch nonces of one
// subscription so a captured PI cannot be replayed, each mapped to the
// agent its dispatch admitted ("" until admission completes). Bounded
// FIFO; callers must hold the owning shard's lock.
type nonceWindow struct {
	seen  map[string]string
	order []string
}

// nonceWindowSize bounds each subscription's replay memory.
const nonceWindowSize = 1024

// remember records a nonce, reporting false if it was already seen.
func (w *nonceWindow) remember(nonce string) bool {
	if _, ok := w.seen[nonce]; ok {
		return false
	}
	w.seen[nonce] = ""
	w.order = append(w.order, nonce)
	if len(w.order) > nonceWindowSize {
		delete(w.seen, w.order[0])
		w.order = w.order[1:]
	}
	return true
}

// --- dispatched agents --------------------------------------------------

// agentMeta tracks one dispatched agent for status and result lookup.
// Fields are guarded by the owning shard's lock.
type agentMeta struct {
	codeID string
	owner  string
	// tenant is the account the dispatching subscription was bound to
	// ("" = default); in-flight accounting and shed protection key on
	// it.
	tenant  string
	done    bool
	gone    bool // terminal without a result (disposed by owner)
	docID   int  // record id of the result document in Documents
	lastWhy string
	// doneAt stamps when the result became collectable (drives the
	// result-document TTL sweep).
	doneAt time.Time
	// goneAt stamps when the agent turned terminal-without-result, so
	// the tombstone itself can be reclaimed once no client can
	// plausibly still ask about it.
	goneAt time.Time
	// origin, on a clustered home gateway, is the edge member that
	// forwarded the dispatch; the result document is relayed there.
	origin string
	// homeGW, on a clustered edge gateway, is the member whose MAS is
	// the agent's home; result/status requests are routed there.
	homeGW string
}

// AgentStatus is a snapshot of one dispatched agent's bookkeeping.
type AgentStatus struct {
	CodeID  string
	Owner   string
	Tenant  string
	Done    bool
	Gone    bool
	DocID   int
	LastWhy string
	Origin  string
	HomeGW  string
}

// NextAgentID allocates a unique agent id for this gateway. It sits on
// the dispatch hot path, so the id is assembled with strconv appends
// (one allocation) instead of fmt.Sprintf.
func (r *Registry) NextAgentID(gatewayAddr string) string {
	b := make([]byte, 0, len("ag-")+len(gatewayAddr)+1+20)
	b = append(b, "ag-"...)
	b = append(b, gatewayAddr...)
	b = append(b, '-')
	b = strconv.AppendUint(b, r.agentSeq.Add(1), 10)
	return string(b)
}

// CreateAgent registers a dispatched agent, billed to tenantID (its
// in-flight accounting lands on that tenant's ledger row), with
// federation routing metadata: origin is the edge member that
// forwarded the dispatch here (home gateways relay the result back to
// it), homeGW is the member owning the agent (edge gateways route
// result and status requests there). Either may be empty. An existing
// entry is never replaced — a fast agent's relayed result can land
// before the edge processes the forward response, and resetting the
// meta would orphan the stored document — only missing metadata is
// filled in. Remotely-homed entries (homeGW != "") are pure
// bookkeeping and do not count toward this member's in-flight load:
// the home member counts the real work, and double-counting would make
// pass-through edges spill spuriously.
func (r *Registry) CreateAgent(id, codeID, owner, tenantID, origin, homeGW string) {
	s := r.shardFor(id)
	s.mu.Lock()
	if meta, exists := s.dispatch[id]; exists {
		if meta.origin == "" {
			meta.origin = origin
		}
		if meta.homeGW == "" {
			meta.homeGW = homeGW
		}
		if meta.tenant == "" {
			meta.tenant = tenantID
		}
		s.mu.Unlock()
		return
	}
	s.dispatch[id] = &agentMeta{codeID: codeID, owner: owner, tenant: tenantID, origin: origin, homeGW: homeGW}
	s.mu.Unlock()
	if homeGW == "" {
		r.inFlight.Add(1)
		r.ledger.AddInFlight(tenantID, 1)
	}
}

// InFlight returns the number of dispatched agents that have neither
// completed nor been released — the gateway's contribution to the
// cluster load signal.
func (r *Registry) InFlight() int {
	n := r.inFlight.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// CompleteAgent marks an agent's result as ready, adopting agents this
// gateway never dispatched (e.g. clones created remotely) so their
// owners can still collect. An agent completed twice keeps its first
// document: the caller whose docID Agent does not report afterwards
// withdraws its copy.
func (r *Registry) CompleteAgent(id, codeID, owner string, docID int, why string) {
	s := r.shardFor(id)
	s.mu.Lock()
	meta, ok := s.dispatch[id]
	if !ok {
		meta = &agentMeta{codeID: codeID, owner: owner}
		s.dispatch[id] = meta
	}
	wasLive := ok && !meta.done && !meta.gone && meta.homeGW == ""
	tenantID := meta.tenant
	if !meta.done {
		// First completion (or resurrection after expiry): queue for the
		// retention sweep.
		s.doneQ = append(s.doneQ, id)
		meta.done = true
		meta.docID = docID
		meta.lastWhy = why
		meta.doneAt = time.Now()
	}
	s.mu.Unlock()
	if wasLive {
		r.inFlight.Add(-1)
		r.ledger.AddInFlight(tenantID, -1)
	}
}

// ExpiredResult names the storage still held by one expired agent.
type ExpiredResult struct {
	AgentID string
	DocID   int // result document record id
}

// ExpireResults retires every completed agent whose result became
// collectable at or before cutoff: the agent flips to the terminal
// "gone" state (result requests answer StatusGone with the reason) and
// result document ids are returned so the caller can delete them from the
// File Directory. Uncompleted and already-expired agents are untouched.
// Cost is O(expired), not O(agents): each shard pops ripe entries from
// the front of its completion queue and stops at the first unripe one,
// so a sweep over a million-agent registry with nothing to reclaim
// touches nothing.
func (r *Registry) ExpireResults(cutoff time.Time) []ExpiredResult {
	var out []ExpiredResult
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for len(s.doneQ) > 0 {
			id := s.doneQ[0]
			meta, ok := s.dispatch[id]
			if ok && meta.done && meta.doneAt.After(cutoff) {
				break // front not ripe; the queue is in doneAt order
			}
			s.doneQ = s.doneQ[1:]
			if !ok || !meta.done {
				continue // stale entry (released or pruned since queued)
			}
			out = append(out, ExpiredResult{AgentID: id, DocID: meta.docID})
			meta.done = false
			meta.gone = true
			meta.goneAt = time.Now()
			meta.docID = 0
			meta.lastWhy = "result expired (retention TTL)"
			s.goneQ = append(s.goneQ, id)
		}
		if len(s.doneQ) == 0 {
			s.doneQ = nil // release the drained queue's backing array
		}
		s.mu.Unlock()
	}
	return out
}

// PruneGone deletes terminal "gone" agents whose tombstone is older
// than cutoff, returning how many were removed. Tombstones exist so a
// late result request answers "expired" instead of "unknown"; once no
// client can plausibly still ask, keeping them would grow the registry
// by every agent ever dispatched. O(pruned) via the per-shard
// tombstone queue.
func (r *Registry) PruneGone(cutoff time.Time) int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for len(s.goneQ) > 0 {
			id := s.goneQ[0]
			meta, ok := s.dispatch[id]
			if ok && meta.gone && meta.goneAt.After(cutoff) {
				break // front not ripe; the queue is in goneAt order
			}
			s.goneQ = s.goneQ[1:]
			if !ok || !meta.gone || meta.done {
				continue // stale entry (resurrected by a late completion)
			}
			delete(s.dispatch, id)
			n++
		}
		if len(s.goneQ) == 0 {
			s.goneQ = nil
		}
		s.mu.Unlock()
	}
	return n
}

// Origin returns the routing metadata of one agent: the edge member
// that forwarded its dispatch (if any).
func (r *Registry) Origin(id string) (origin string, ok bool) {
	s := r.shardFor(id)
	s.mu.RLock()
	meta, ok := s.dispatch[id]
	if ok {
		origin = meta.origin
	}
	s.mu.RUnlock()
	return origin, ok
}

// Agent returns the status snapshot for one agent id.
func (r *Registry) Agent(id string) (AgentStatus, bool) {
	s := r.shardFor(id)
	s.mu.RLock()
	meta, ok := s.dispatch[id]
	var st AgentStatus
	if ok {
		st = AgentStatus{CodeID: meta.codeID, Owner: meta.owner, Tenant: meta.tenant, Done: meta.done,
			Gone: meta.gone, DocID: meta.docID, LastWhy: meta.lastWhy, Origin: meta.origin, HomeGW: meta.homeGW}
	}
	s.mu.RUnlock()
	return st, ok
}

// KnownAgent reports whether the agent id was ever dispatched or
// adopted here.
func (r *Registry) KnownAgent(id string) bool {
	s := r.shardFor(id)
	s.mu.RLock()
	_, ok := s.dispatch[id]
	s.mu.RUnlock()
	return ok
}

// ReleaseAgent marks a known agent terminal without a result (disposed
// by its owner, or its admission failed), recording why; false for an
// unknown agent.
func (r *Registry) ReleaseAgent(id, why string) bool {
	s := r.shardFor(id)
	s.mu.Lock()
	meta, ok := s.dispatch[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	wasLive := !meta.done && !meta.gone && meta.homeGW == ""
	tenantID := meta.tenant
	if !meta.gone {
		meta.goneAt = time.Now()
		s.goneQ = append(s.goneQ, id)
	}
	meta.gone = true
	meta.lastWhy = why
	s.mu.Unlock()
	if wasLive {
		r.inFlight.Add(-1)
		r.ledger.AddInFlight(tenantID, -1)
	}
	return true
}

// AdoptClone registers cloneID under the code id and owner of srcID so
// the clone's results are collectable like the original's. It never
// overwrites an existing record: a fast clone may finish and be
// completed by onAgentHome before the clone-verb response is
// processed, and resetting it would strand its result.
func (r *Registry) AdoptClone(srcID, cloneID string) bool {
	st, ok := r.Agent(srcID)
	if !ok {
		return false
	}
	s := r.shardFor(cloneID)
	s.mu.Lock()
	_, exists := s.dispatch[cloneID]
	if !exists {
		// The clone inherits the source agent's tenant: cloning must not
		// launder resource consumption into the default account.
		s.dispatch[cloneID] = &agentMeta{codeID: st.CodeID, owner: st.Owner, tenant: st.Tenant}
	}
	s.mu.Unlock()
	if !exists {
		r.inFlight.Add(1)
		r.ledger.AddInFlight(st.Tenant, 1)
	}
	return true
}

// NumAgents counts dispatched agents across all shards.
func (r *Registry) NumAgents() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.dispatch)
		s.mu.RUnlock()
	}
	return n
}
