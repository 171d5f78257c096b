package cluster

import (
	"context"
	"crypto/subtle"
	"sort"
	"strconv"
	"sync"

	"pdagent/internal/kxml"
	"pdagent/internal/transport"
)

// MemberState is the failure-detector state of one member.
type MemberState string

// Member states. The zero value of a fresh entry is StateAlive.
const (
	// StateAlive members receive traffic and placement.
	StateAlive MemberState = "alive"
	// StateSuspect members missed SuspectAfter ticks of evidence; they
	// are skipped by placement but still probed, so a heartbeat from
	// them (or fresh gossip) restores StateAlive.
	StateSuspect MemberState = "suspect"
	// StateLeft members announced a graceful departure (drain) or were
	// evicted; the entry lingers as a tombstone so stale gossip cannot
	// resurrect them, then ages out entirely.
	StateLeft MemberState = "left"
)

// Load is the spill signal a heartbeat carries: how much work a member
// has queued and in flight (cs/0407013's load-balanced placement).
type Load struct {
	// QueueDepth is pending work not yet executing (e.g. parked or
	// queued agents).
	QueueDepth int
	// InFlight is dispatched-but-unfinished agent count.
	InFlight int
}

// TenantUsage is one tenant's resource tally on one member, carried
// on heartbeats so per-tenant quotas hold cluster-wide (DESIGN.md
// §12). Each member gossips only its own rows; receivers store them
// under the sender and sum across members on demand.
type TenantUsage struct {
	// Tenant is the account label ("default" for the implicit account).
	Tenant string
	// InFlight is the member's dispatched-but-unfinished agents for
	// this tenant.
	InFlight int64
	// Residents is the tenant's agents resident on the member's MAS.
	Residents int64
	// MailboxBytes is the tenant's pending mailbox payload bytes there.
	MailboxBytes int64
	// JournalBytes is the tenant's journaled agent bytes there.
	JournalBytes int64
}

// Member is a snapshot of one cluster member as seen locally.
type Member struct {
	Addr        string
	State       MemberState
	Incarnation int
	Load        Load
	// Age is how many local ticks ago the last evidence arrived (0 for
	// self).
	Age int
}

// MembershipConfig configures a Membership.
type MembershipConfig struct {
	// Self is this member's advertised address. Required.
	Self string
	// Seeds are addresses that bootstrap the view (self is implied and
	// filtered out). The static §3.5 list becomes the seed list.
	Seeds []string
	// Transport carries heartbeats. Required.
	Transport transport.RoundTripper
	// Secret is the shared cluster credential stamped on every
	// heartbeat and required of every received one (see
	// cluster.Config.Secret).
	Secret string
	// SuspectAfter is how many ticks without evidence mark a member
	// suspect (default 3).
	SuspectAfter int
	// EvictAfter is how many ticks without evidence evict a member from
	// the view entirely (default 8; must exceed SuspectAfter).
	EvictAfter int
	// LoadFn reports local load for outgoing heartbeats (nil: zero).
	LoadFn func() Load
	// TenantUsageFn reports this member's per-tenant usage rows for
	// outgoing heartbeats (nil: none gossiped).
	TenantUsageFn func() []TenantUsage
	// EpochFn reports this member's fencing epoch, stamped on outgoing
	// heartbeats so peers can refuse a fenced zombie (nil: epoch 0).
	EpochFn func() uint64
	// OnEvict fires (outside the membership lock) when suspicion
	// transitions a member to StateLeft — the warm-standby promotion
	// hook. It does NOT fire for graceful leaves or tombstones learned
	// from gossip: only the member that aged the suspect out itself
	// promotes, so a view that merely heard about the eviction does not
	// double-promote.
	OnEvict func(addr string)
	// OnFenced fires (outside the lock) when this member learns its own
	// address is fenced at an epoch above its own — it is a zombie that
	// missed its eviction and must stop serving writes.
	OnFenced func(epoch uint64)
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// memberInfo is the mutable per-member record.
type memberInfo struct {
	state    MemberState
	inc      int
	load     Load
	usage    []TenantUsage // the member's own gossiped per-tenant rows
	lastSeen int           // local tick of last evidence
}

// Membership is the gossiping failure detector. Drive it with Tick —
// manually in simulated worlds (deterministic), or via Node.Start on a
// wall-clock interval in the daemons.
type Membership struct {
	cfg MembershipConfig

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
	fences map[string]uint64

	locs *Locations // piggyback source/sink; may be nil
}

// NewMembership builds a membership bootstrapped from the seed list:
// seeds start alive, so placement works before the first heartbeat.
func NewMembership(cfg MembershipConfig) *Membership {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.EvictAfter <= cfg.SuspectAfter {
		cfg.EvictAfter = cfg.SuspectAfter + 5
	}
	m := &Membership{cfg: cfg, members: map[string]*memberInfo{}, version: 1, fences: map[string]uint64{}}
	for _, s := range cfg.Seeds {
		if s == "" || s == cfg.Self {
			continue
		}
		m.members[s] = &memberInfo{state: StateAlive}
	}
	return m
}

func (m *Membership) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Self returns the advertised address.
func (m *Membership) Self() string { return m.cfg.Self }

// Version counts placement-relevant view changes; Node caches its ring
// against it.
func (m *Membership) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Alive reports whether addr is in the live view (self included unless
// leaving).
func (m *Membership) Alive(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == m.cfg.Self {
		return !m.leaving
	}
	e, ok := m.members[addr]
	return ok && e.state == StateAlive
}

// AliveAddrs returns the live member view, sorted, self first. This is
// what the gateway's §3.5 directory endpoint now serves.
func (m *Membership) AliveAddrs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	if !m.leaving {
		out = append(out, m.cfg.Self)
	}
	for addr, e := range m.members {
		if e.state == StateAlive {
			out = append(out, addr)
		}
	}
	if len(out) > 0 {
		sort.Strings(out[1:]) // deterministic order; self stays first
	}
	return out
}

// Members snapshots the full view including suspects and tombstones
// (self excluded), for debugging and tests.
func (m *Membership) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for addr, e := range m.members {
		out = append(out, Member{
			Addr: addr, State: e.state, Incarnation: e.inc,
			Load: e.load, Age: m.tick - e.lastSeen,
		})
	}
	return out
}

// SetLoadFunc installs the local load reporter; the gateway wires its
// registry gauge here after construction.
func (m *Membership) SetLoadFunc(fn func() Load) {
	m.mu.Lock()
	m.cfg.LoadFn = fn
	m.mu.Unlock()
}

// SetTenantUsageFunc installs the local per-tenant usage reporter;
// the gateway wires its tenant ledger here after construction.
func (m *Membership) SetTenantUsageFunc(fn func() []TenantUsage) {
	m.mu.Lock()
	m.cfg.TenantUsageFn = fn
	m.mu.Unlock()
}

// RemoteTenantUsage sums the per-tenant usage last gossiped by every
// live or suspect member (self excluded — the caller's own ledger is
// authoritative locally), keyed by tenant label. Freshness is
// heartbeat-granularity: a quota can overshoot by what the cluster
// admitted inside one gossip round, which is the documented §12
// trade-off for keeping admission off the cluster's critical path.
func (m *Membership) RemoteTenantUsage() map[string]TenantUsage {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]TenantUsage{}
	for _, e := range m.members {
		if e.state == StateLeft {
			continue
		}
		for _, u := range e.usage {
			sum := out[u.Tenant]
			sum.Tenant = u.Tenant
			sum.InFlight += u.InFlight
			sum.Residents += u.Residents
			sum.MailboxBytes += u.MailboxBytes
			sum.JournalBytes += u.JournalBytes
			out[u.Tenant] = sum
		}
	}
	return out
}

// LoadOf returns the last known load of addr. Self answers from the
// snapshot taken at the last heartbeat, NOT a live LoadFn call: LoadOf
// sits on the placement path of every dispatch, and LoadFn may walk
// gateway state under its own locks — heartbeat-granularity freshness
// is exactly what remote members get too.
func (m *Membership) LoadOf(addr string) (Load, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == m.cfg.Self {
		return m.selfLoad, true
	}
	e, ok := m.members[addr]
	if !ok {
		return Load{}, false
	}
	return e.load, true
}

// Tick runs one heartbeat round: advance suspicion/eviction, then
// exchange views with every known peer (and unseen seeds). Peers that
// answer are fresh evidence; merge folds in what they know. Returns
// how many peers answered.
func (m *Membership) Tick(ctx context.Context) int {
	m.mu.Lock()
	m.tick++
	now := m.tick
	var evicted []string
	// Failure suspicion: age out evidence.
	for addr, e := range m.members {
		age := now - e.lastSeen
		switch {
		case e.state == StateAlive && age > m.cfg.SuspectAfter:
			e.state = StateSuspect
			m.version++
			m.logf("cluster %s: suspecting %s (no evidence for %d ticks)", m.cfg.Self, addr, age)
		case e.state == StateSuspect && age > m.cfg.EvictAfter:
			e.state = StateLeft
			m.version++
			evicted = append(evicted, addr)
			m.logf("cluster %s: evicting %s", m.cfg.Self, addr)
		case e.state == StateLeft && age > 3*m.cfg.EvictAfter:
			delete(m.members, addr) // tombstone aged out
		}
	}
	var peers []string
	for addr, e := range m.members {
		if e.state != StateLeft {
			peers = append(peers, addr)
		}
	}
	m.mu.Unlock()
	if m.cfg.OnEvict != nil {
		sort.Strings(evicted)
		for _, addr := range evicted {
			m.cfg.OnEvict(addr)
		}
	}
	sort.Strings(peers) // deterministic heartbeat order for simulated worlds

	doc := m.viewDoc()
	answered := 0
	for _, addr := range peers {
		req := &transport.Request{Path: "/cluster/heartbeat", Body: doc}
		m.stampIdentity(req)
		resp, err := m.cfg.Transport.RoundTrip(ctx, addr, req)
		if err != nil || !resp.IsOK() {
			if err == nil {
				m.noteFencedReply(resp)
			}
			continue
		}
		answered++
		m.noteEvidence(addr)
		if err := m.Merge(resp.Body); err != nil {
			m.logf("cluster %s: bad heartbeat reply from %s: %v", m.cfg.Self, addr, err)
		}
	}
	return answered
}

// stampIdentity adds the cluster token plus the sender's address and
// fencing epoch to an outgoing intra-cluster request.
func (m *Membership) stampIdentity(req *transport.Request) {
	req.SetHeader(tokenHeader, m.cfg.Secret)
	req.SetHeader(originHeader, m.cfg.Self)
	req.SetHeader(epochHeader, strconv.FormatUint(m.epoch(), 10))
}

func (m *Membership) epoch() uint64 {
	if m.cfg.EpochFn == nil {
		return 0
	}
	return m.cfg.EpochFn()
}

// noteFencedReply inspects a refused heartbeat: a Forbidden reply
// carrying the fenced-epoch header means a peer has fenced US — we are
// a zombie that missed its own eviction, and a standby now owns our
// state. Surface it so the embedder stops serving writes.
func (m *Membership) noteFencedReply(resp *transport.Response) {
	if resp == nil || resp.Status != transport.StatusForbidden {
		return
	}
	h := resp.GetHeader(fencedEpochHeader)
	if h == "" {
		return
	}
	epoch, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return
	}
	if m.cfg.OnFenced != nil {
		m.cfg.OnFenced(epoch)
	}
}

// FenceOf returns addr's fencing epoch (0 if never fenced).
func (m *Membership) FenceOf(addr string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fences[addr]
}

// RaiseFence bumps addr's fencing epoch past everything seen so far
// and returns the new value. The caller (a promoting standby) gossips
// it on its next heartbeats; any instance of addr presenting a lower
// epoch is refused cluster writes from then on. A legitimately
// restarted addr re-enters by adopting an epoch >= the fence.
func (m *Membership) RaiseFence(addr string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.fences[addr] + 1
	m.fences[addr] = f
	m.version++
	return f
}

// noteEvidence records direct proof of life for addr. A StateLeft
// member is not resurrected by answering a probe: it departed (or was
// evicted) under its current incarnation and must rejoin by refuting
// with a higher one, so stale processes cannot flap the view.
func (m *Membership) noteEvidence(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.members[addr]
	if !ok {
		e = &memberInfo{}
		m.members[addr] = e
	}
	if e.state == StateSuspect {
		e.state = StateAlive
		m.version++
	}
	e.lastSeen = m.tick
}

// Leave announces a graceful departure: the local member flips to
// leaving (AliveAddrs drops self, placement refuses local homes) and a
// final heartbeat with state=left is pushed to every live peer so they
// drop us without waiting for suspicion.
func (m *Membership) Leave(ctx context.Context) {
	m.mu.Lock()
	if m.leaving {
		m.mu.Unlock()
		return
	}
	m.leaving = true
	m.selfInc++
	m.version++
	var peers []string
	for addr, e := range m.members {
		if e.state != StateLeft {
			peers = append(peers, addr)
		}
	}
	m.mu.Unlock()
	sort.Strings(peers)
	doc := m.viewDoc()
	for _, addr := range peers {
		req := &transport.Request{Path: "/cluster/heartbeat", Body: doc}
		m.stampIdentity(req)
		if _, err := m.cfg.Transport.RoundTrip(ctx, addr, req); err != nil {
			m.logf("cluster %s: leave notification to %s: %v", m.cfg.Self, addr, err)
		}
	}
}

// HandleHeartbeat is the /cluster/heartbeat endpoint: merge the
// sender's view and answer with ours (pull-push gossip). Requests
// without the shared secret are refused — an outsider must not be
// able to evict members or poison the view.
func (m *Membership) HandleHeartbeat(_ context.Context, req *transport.Request) *transport.Response {
	if subtle.ConstantTimeCompare([]byte(req.GetHeader(tokenHeader)), []byte(m.cfg.Secret)) != 1 {
		return transport.Errorf(transport.StatusForbidden, "cluster: missing or wrong cluster token")
	}
	// Epoch fencing: a zombie ex-primary (fenced after its standby
	// promoted) is refused — and told so, with the fence epoch in the
	// reply, so it learns its own death instead of gossiping stale
	// state back into the view. Its entries must not be merged: a
	// zombie's view still lists itself alive.
	if origin := req.GetHeader(originHeader); origin != "" {
		if fence := m.FenceOf(origin); fence > requestEpoch(req) {
			resp := transport.Errorf(transport.StatusForbidden,
				"cluster: %s fenced at epoch %d", origin, fence)
			resp.SetHeader(fencedEpochHeader, strconv.FormatUint(fence, 10))
			return resp
		}
	}
	if err := m.Merge(req.Body); err != nil {
		return transport.Errorf(transport.StatusBadRequest, "cluster view: %v", err)
	}
	return transport.OK(m.viewDoc())
}

// requestEpoch reads the fencing epoch a request claims (0 if absent).
func requestEpoch(req *transport.Request) uint64 {
	e, err := strconv.ParseUint(req.GetHeader(epochHeader), 10, 64)
	if err != nil {
		return 0
	}
	return e
}

// viewDoc renders the local view (plus piggybacked location updates)
// as a cluster-view XML document.
func (m *Membership) viewDoc() []byte {
	m.mu.Lock()
	root := kxml.NewElement("cluster-view")
	root.SetAttr("from", m.cfg.Self)
	root.SetAttr("inc", strconv.Itoa(m.selfInc))
	selfState := StateAlive
	if m.leaving {
		selfState = StateLeft
	}
	var selfLoad Load
	loadFn := m.cfg.LoadFn
	usageFn := m.cfg.TenantUsageFn
	now := m.tick
	type row struct {
		addr  string
		state MemberState
		inc   int
		load  Load
		age   int
	}
	rows := make([]row, 0, len(m.members)+1)
	for addr, e := range m.members {
		rows = append(rows, row{addr, e.state, e.inc, e.load, now - e.lastSeen})
	}
	fences := make(map[string]uint64, len(m.fences))
	for addr, f := range m.fences {
		fences[addr] = f
	}
	m.mu.Unlock()

	// Load is read outside the lock: LoadFn reaches into gateway state.
	if loadFn != nil {
		selfLoad = loadFn()
		m.mu.Lock()
		m.selfLoad = selfLoad // refresh the placement-path snapshot
		m.mu.Unlock()
	}
	rows = append(rows, row{m.cfg.Self, selfState, m.selfIncSnapshot(), selfLoad, 0})
	for _, r := range rows {
		e := root.AddElement("member")
		e.SetAttr("addr", r.addr)
		e.SetAttr("state", string(r.state))
		e.SetAttr("inc", strconv.Itoa(r.inc))
		e.SetAttr("queue", strconv.Itoa(r.load.QueueDepth))
		e.SetAttr("inflight", strconv.Itoa(r.load.InFlight))
		e.SetAttr("age", strconv.Itoa(r.age))
	}
	// Per-tenant usage rows: only our own — each member vouches for its
	// own tallies, receivers sum across senders (RemoteTenantUsage).
	if usageFn != nil {
		for _, u := range usageFn() {
			e := root.AddElement("usage")
			e.SetAttr("tenant", u.Tenant)
			e.SetAttr("inflight", strconv.FormatInt(u.InFlight, 10))
			e.SetAttr("residents", strconv.FormatInt(u.Residents, 10))
			e.SetAttr("mbbytes", strconv.FormatInt(u.MailboxBytes, 10))
			e.SetAttr("jbytes", strconv.FormatInt(u.JournalBytes, 10))
		}
	}
	fenceAddrs := make([]string, 0, len(fences))
	for addr := range fences {
		fenceAddrs = append(fenceAddrs, addr)
	}
	sort.Strings(fenceAddrs)
	for _, addr := range fenceAddrs {
		e := root.AddElement("fence")
		e.SetAttr("addr", addr)
		e.SetAttr("epoch", strconv.FormatUint(fences[addr], 10))
	}
	if m.locs != nil {
		m.locs.appendRecent(root)
	}
	return root.EncodeDocument()
}

func (m *Membership) selfIncSnapshot() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.selfInc
}

// Merge folds a cluster-view document into the local view, SWIM
// style. Rules, per member entry e about member a:
//
//   - a == self and e says suspect/left while we are not leaving:
//     refute by bumping our incarnation (the next heartbeat spreads
//     the higher incarnation, restoring us everywhere);
//   - the document's *sender* reporting on itself is direct evidence:
//     it refreshes liveness and load and clears suspicion;
//   - third-party entries never refresh liveness (an idle reporter's
//     stale "alive" must not keep a dead member alive forever); they
//     only introduce unknown members, spread higher incarnations, and
//     spread worse states (left > suspect > alive) at equal
//     incarnation.
//
// Piggybacked <loc> entries are folded into the location table.
func (m *Membership) Merge(doc []byte) error {
	root, err := kxml.ParseBytes(doc)
	if err != nil {
		return err
	}
	if root.Name != "cluster-view" {
		return errNotView
	}
	from := root.AttrDefault("from", "")
	selfFencedAt := uint64(0)
	usageRows := []TenantUsage{}
	m.mu.Lock()
	for _, child := range root.Children {
		if child.Name == "usage" {
			// Usage rows are the sender's own tallies; collected here and
			// attached to the sender's entry below.
			t := child.AttrDefault("tenant", "")
			if t == "" {
				continue
			}
			usageRows = append(usageRows, TenantUsage{
				Tenant:       t,
				InFlight:     atoi64Default(child.AttrDefault("inflight", "0")),
				Residents:    atoi64Default(child.AttrDefault("residents", "0")),
				MailboxBytes: atoi64Default(child.AttrDefault("mbbytes", "0")),
				JournalBytes: atoi64Default(child.AttrDefault("jbytes", "0")),
			})
			continue
		}
		if child.Name == "fence" {
			// Fencing epochs max-merge: once raised anywhere, a fence
			// spreads everywhere and never lowers.
			addr := child.AttrDefault("addr", "")
			epoch, err := strconv.ParseUint(child.AttrDefault("epoch", "0"), 10, 64)
			if addr == "" || err != nil {
				continue
			}
			if epoch > m.fences[addr] {
				m.fences[addr] = epoch
				m.version++
			}
			if addr == m.cfg.Self && m.fences[addr] > m.epoch() {
				selfFencedAt = m.fences[addr]
			}
			continue
		}
		if child.Name != "member" {
			continue
		}
		addr := child.AttrDefault("addr", "")
		if addr == "" {
			continue
		}
		state := MemberState(child.AttrDefault("state", string(StateAlive)))
		inc := atoiDefault(child.AttrDefault("inc", "0"))
		load := Load{
			QueueDepth: atoiDefault(child.AttrDefault("queue", "0")),
			InFlight:   atoiDefault(child.AttrDefault("inflight", "0")),
		}
		if addr == m.cfg.Self {
			if state != StateAlive && inc >= m.selfInc && !m.leaving {
				m.selfInc = inc + 1 // refutation
				m.version++
			}
			continue
		}
		direct := addr == from // the sender vouches for itself only
		e, ok := m.members[addr]
		if !ok {
			// Unknown member: adopt it with a fresh grace period — if it
			// is actually dead, our own suspicion will age it out.
			m.members[addr] = &memberInfo{state: state, inc: inc, load: load, lastSeen: m.tick}
			m.version++
			continue
		}
		switch {
		case inc > e.inc:
			if e.state != state {
				m.version++
			}
			e.inc, e.state, e.load = inc, state, load
			if direct {
				e.lastSeen = m.tick
			}
		case inc == e.inc:
			if direct {
				e.lastSeen = m.tick
				e.load = load
				if state == StateAlive && e.state != StateAlive && e.state != StateLeft {
					e.state = StateAlive
					m.version++
				}
				if state == StateLeft && e.state != StateLeft {
					e.state = StateLeft // graceful leave announcement
					m.version++
				}
			} else if rank(state) > rank(e.state) {
				e.state = state
				m.version++
			}
		}
	}
	// The sender vouches for its own usage: replace its rows wholesale
	// (an empty heartbeat clears stale tallies).
	if from != "" && from != m.cfg.Self {
		if e, ok := m.members[from]; ok {
			e.usage = usageRows
		}
	}
	m.mu.Unlock()
	if selfFencedAt > 0 && m.cfg.OnFenced != nil {
		m.cfg.OnFenced(selfFencedAt)
	}
	if m.locs != nil {
		m.locs.mergeFrom(root)
	}
	return nil
}

// rank orders states for equal-incarnation merges.
func rank(s MemberState) int {
	switch s {
	case StateLeft:
		return 2
	case StateSuspect:
		return 1
	default:
		return 0
	}
}

func atoiDefault(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

func atoi64Default(s string) int64 {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// errNotView is returned by Merge for a document of the wrong type.
var errNotView = errorString("cluster: not a cluster-view document")

type errorString string

func (e errorString) Error() string { return string(e) }
