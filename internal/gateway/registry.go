package gateway

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pdagent/internal/mas"
	"pdagent/internal/rms"
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
//
// Finished agents (done or gone) retire by the MAS's rule: the
// registry remembers at most mas.MaxRetired of them, and the oldest
// leaves — its meta and its result document in docs together — when
// one more finishes. Agents in flight are never retired.
type Registry struct {
	shards   []registryShard
	agentSeq atomic.Uint64
	// inFlight gauges dispatched-but-unfinished agents; heartbeats
	// gossip it as the cluster's load-aware-spill signal.
	inFlight atomic.Int64
	// ledger splits the inFlight gauge by tenant (admission's quota and
	// weighted-share input).
	ledger *tenant.Ledger
	// docs is the File Directory holding the result documents.
	docs rms.Store
	// retireMu guards retired, the FIFO of finished agent ids; it is
	// never held with a shard lock.
	retireMu sync.Mutex
	retired  []string
	// docsRetired counts result documents deleted by retirement.
	docsRetired atomic.Uint64
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
}

// NewRegistry returns an empty registry whose agents' result documents
// live in docs.
func NewRegistry(docs rms.Store) *Registry {
	r := &Registry{shards: make([]registryShard, registryShards), ledger: tenant.NewLedger(),
		docs: docs}
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

// SkipIDs returns a func that raises the agent sequence past the id
// NextAgentID(gatewayAddr) handed out that its argument names (an agent
// id, or an event id such as "result:<agent>"), so a gateway restarted
// over its stores never reissues an id they, or a host that dedups on
// it, remember.
func (r *Registry) SkipIDs(gatewayAddr string) func(string) {
	prefix := "ag-" + gatewayAddr + "-"
	return func(s string) {
		if _, rest, ok := strings.Cut(s, prefix); ok {
			if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
				for cur := r.agentSeq.Load(); n > cur && !r.agentSeq.CompareAndSwap(cur, n); cur = r.agentSeq.Load() {
				}
			}
		}
	}
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
// gateway never dispatched (e.g. clones created remotely, or an agent
// retired before its result came back) so their owners can still
// collect. An agent completed twice keeps its first document: the
// caller whose docID Agent does not report afterwards withdraws its
// copy.
func (r *Registry) CompleteAgent(id, codeID, owner string, docID int, why string) {
	s := r.shardFor(id)
	s.mu.Lock()
	meta, ok := s.dispatch[id]
	if !ok {
		meta = &agentMeta{codeID: codeID, owner: owner}
		s.dispatch[id] = meta
	}
	finishing := !meta.done && !meta.gone
	wasLive := ok && finishing && meta.homeGW == ""
	tenantID := meta.tenant
	if !meta.done {
		meta.done = true
		meta.docID = docID
		meta.lastWhy = why
	}
	s.mu.Unlock()
	if wasLive {
		r.inFlight.Add(-1)
		r.ledger.AddInFlight(tenantID, -1)
	}
	if finishing {
		r.retire(id)
	}
}

// retire files a newly finished agent at the back of the FIFO and,
// past mas.MaxRetired, forgets the agent at its front: the meta and
// the result document go in one step. Each finished id is filed once,
// so an id is never in the FIFO twice.
func (r *Registry) retire(id string) {
	r.retireMu.Lock()
	r.retired = append(r.retired, id)
	var old string
	if len(r.retired) > mas.MaxRetired {
		old = r.retired[0]
		r.retired[0] = ""
		r.retired = r.retired[1:]
	}
	r.retireMu.Unlock()
	if old == "" {
		return
	}
	s := r.shardFor(old)
	s.mu.Lock()
	meta := s.dispatch[old]
	delete(s.dispatch, old)
	s.mu.Unlock()
	if meta != nil && meta.docID != 0 {
		_ = r.docs.Delete(meta.docID)
		r.docsRetired.Add(1)
	}
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
	finishing := !meta.done && !meta.gone
	wasLive := finishing && meta.homeGW == ""
	tenantID := meta.tenant
	meta.gone = true
	meta.lastWhy = why
	s.mu.Unlock()
	if wasLive {
		r.inFlight.Add(-1)
		r.ledger.AddInFlight(tenantID, -1)
	}
	if finishing {
		r.retire(id)
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
