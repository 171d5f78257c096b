package cluster

import (
	"context"
	"errors"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"pdagent/internal/kxml"
	"pdagent/internal/transport"
)

// MemberState is the failure-detector state of one member.
type MemberState string

// Member states. The zero value of a fresh entry is StateAlive.
const (
	// StateAlive members receive traffic and placement.
	StateAlive MemberState = "alive"
	// StateSuspect members missed suspectAfter ticks of evidence; they
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

// memberInfo is the mutable per-member record.
type memberInfo struct {
	state    MemberState
	inc      int
	load     Load
	usage    []TenantUsage // the member's own gossiped per-tenant rows
	lastSeen int           // local tick of last evidence
}

// Version counts placement-relevant view changes; Node caches its ring
// against it.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Alive reports whether addr is in the live view (self included unless
// leaving).
func (n *Node) Alive(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == n.cfg.Self {
		return !n.leaving
	}
	e, ok := n.members[addr]
	return ok && e.state == StateAlive
}

// AliveAddrs returns the live member view, sorted, self first. This is
// what the gateway's §3.5 directory endpoint now serves.
func (n *Node) AliveAddrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	if !n.leaving {
		out = append(out, n.cfg.Self)
	}
	for addr, e := range n.members {
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
func (n *Node) Members() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for addr, e := range n.members {
		out = append(out, Member{
			Addr: addr, State: e.state, Incarnation: e.inc,
			Load: e.load, Age: n.tick - e.lastSeen,
		})
	}
	return out
}

// SetLoadFunc installs the local load reporter; the gateway wires its
// registry gauge here after construction.
func (n *Node) SetLoadFunc(fn func() Load) {
	n.mu.Lock()
	n.loadFn = fn
	n.mu.Unlock()
}

// SetTenantUsageFunc installs the local per-tenant usage reporter;
// the gateway wires its tenant ledger here after construction.
func (n *Node) SetTenantUsageFunc(fn func() []TenantUsage) {
	n.mu.Lock()
	n.usageFn = fn
	n.mu.Unlock()
}

// RemoteTenantUsage sums the per-tenant usage last gossiped by every
// live or suspect member (self excluded — the caller's own ledger is
// authoritative locally), keyed by tenant label. Freshness is
// heartbeat-granularity: a quota can overshoot by what the cluster
// admitted inside one gossip round, which is the documented §12
// trade-off for keeping admission off the cluster's critical path.
func (n *Node) RemoteTenantUsage() map[string]TenantUsage {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := map[string]TenantUsage{}
	for _, e := range n.members {
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
// snapshot taken at the last heartbeat, NOT a live loadFn call: LoadOf
// sits on the placement path of every dispatch, and loadFn may walk
// gateway state under its own locks — heartbeat-granularity freshness
// is exactly what remote members get too.
func (n *Node) LoadOf(addr string) (Load, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == n.cfg.Self {
		return n.selfLoad, true
	}
	e, ok := n.members[addr]
	if !ok {
		return Load{}, false
	}
	return e.load, true
}

// Tick runs one heartbeat round: advance suspicion/eviction, then
// exchange views with every known peer (and unseen seeds). Peers that
// answer are fresh evidence; merge folds in what they know. Returns
// how many peers answered.
func (n *Node) Tick(ctx context.Context) int {
	n.mu.Lock()
	n.tick++
	now := n.tick
	var evicted []string
	// Failure suspicion: age out evidence.
	for addr, e := range n.members {
		age := now - e.lastSeen
		switch {
		case e.state == StateAlive && age > suspectAfter:
			e.state = StateSuspect
			n.version++
			n.logf("cluster %s: suspecting %s (no evidence for %d ticks)", n.cfg.Self, addr, age)
		case e.state == StateSuspect && age > evictAfter:
			e.state = StateLeft
			n.version++
			evicted = append(evicted, addr)
			n.logf("cluster %s: evicting %s", n.cfg.Self, addr)
		case e.state == StateLeft && age > 3*evictAfter:
			delete(n.members, addr) // tombstone aged out
		}
	}
	peers := n.peersLocked()
	n.mu.Unlock()
	if n.cfg.OnEvict != nil {
		sort.Strings(evicted)
		for _, addr := range evicted {
			n.cfg.OnEvict(addr)
		}
	}

	// The round trips run at once, so k stopped peers cost the tick one
	// heartbeatTimeout, not k of them. Replies are applied once all have
	// returned, in sorted peer order, so a simulated world merges them
	// in the same order every run.
	doc := n.viewDoc()
	type reply struct {
		resp *transport.Response
		err  error
	}
	replies := make([]reply, len(peers))
	var wg sync.WaitGroup
	for i, addr := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i].resp, replies[i].err = n.heartbeat(ctx, addr, doc)
		}()
	}
	wg.Wait()
	answered := 0
	for i, addr := range peers {
		resp, err := replies[i].resp, replies[i].err
		if err != nil {
			continue
		}
		if !resp.IsOK() {
			n.noteFencedReply(resp)
			continue
		}
		// A reply from below addr's fence is a zombie's — fenced but not
		// evicted yet: its view still lists itself alive, and its answer
		// is no proof that addr lives.
		if fence := n.FenceOf(addr); fence > parseEpoch(resp.GetHeader(epochHeader)) {
			n.logf("cluster %s: ignoring heartbeat reply from %s (origin %q): fenced at epoch %d", n.cfg.Self, addr, resp.GetHeader(originHeader), fence)
			continue
		}
		answered++
		n.noteEvidence(addr)
		if err := n.merge(resp.Body); err != nil {
			n.logf("cluster %s: bad heartbeat reply from %s: %v", n.cfg.Self, addr, err)
		}
	}
	return answered
}

// peersLocked lists the members a heartbeat goes to — every one not
// known to have left — sorted, so simulated worlds apply the replies in
// a deterministic order. Called with mu held.
func (n *Node) peersLocked() []string {
	var peers []string
	for addr, e := range n.members {
		if e.state != StateLeft {
			peers = append(peers, addr)
		}
	}
	sort.Strings(peers)
	return peers
}

// heartbeat sends one stamped cluster-view document to addr. The round
// trip gets its own wall deadline: a peer stopped mid-round trip (kill
// -STOP, a hung host) costs the tick heartbeatTimeout, not the HTTP
// client's 30 s (inert on the inline simulated fabric, where round
// trips complete before it could fire).
func (n *Node) heartbeat(ctx context.Context, addr string, doc []byte) (*transport.Response, error) {
	req := &transport.Request{Path: "/cluster/heartbeat", Body: doc}
	n.Stamp(req)
	ctx, cancel := context.WithTimeout(ctx, heartbeatTimeout)
	defer cancel()
	return n.cfg.Transport.RoundTrip(ctx, addr, req)
}

// heartbeatTimeout bounds one heartbeat round trip. A peer that misses
// it has given no evidence this tick, like one that refused the dial.
const heartbeatTimeout = time.Second

// noteFencedReply inspects a refused heartbeat: a Forbidden reply
// carrying the fenced-epoch header means a peer has fenced US — we are
// a zombie that missed its own eviction, and a standby now owns our
// state. Latch it so the gateway stops serving writes.
func (n *Node) noteFencedReply(resp *transport.Response) {
	if resp.Status != transport.StatusForbidden {
		return
	}
	if epoch, err := strconv.ParseUint(resp.GetHeader(fencedEpochHeader), 10, 64); err == nil {
		n.noteFenced(epoch)
	}
}

// FenceOf returns addr's fencing epoch (0 if never fenced).
func (n *Node) FenceOf(addr string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fences[addr]
}

// RaiseFence bumps addr's fencing epoch past everything seen so far
// and returns the new value. The caller (a promoting standby) gossips
// it on its next heartbeats; any instance of addr presenting a lower
// epoch is refused cluster writes from then on. A legitimately
// restarted addr re-enters by adopting an epoch >= the fence.
func (n *Node) RaiseFence(addr string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := n.fences[addr] + 1
	n.fences[addr] = f
	n.version++
	return f
}

// noteEvidence records direct proof of life for addr. A StateLeft
// member is not resurrected by answering a probe: it departed (or was
// evicted) under its current incarnation and must rejoin by refuting
// with a higher one, so stale processes cannot flap the view.
func (n *Node) noteEvidence(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.members[addr]
	if !ok {
		e = &memberInfo{}
		n.members[addr] = e
	}
	if e.state == StateSuspect {
		e.state = StateAlive
		n.version++
	}
	e.lastSeen = n.tick
}

// Leave stops the tick loop and announces a graceful departure: the
// local member flips to leaving (AliveAddrs drops self, placement
// refuses local homes) and a final heartbeat with state=left is pushed
// to every live peer so they drop us without waiting for suspicion.
func (n *Node) Leave(ctx context.Context) {
	n.Stop()
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return
	}
	n.leaving = true
	n.selfInc++
	n.version++
	peers := n.peersLocked()
	n.mu.Unlock()
	doc := n.viewDoc()
	for _, addr := range peers {
		if _, err := n.heartbeat(ctx, addr, doc); err != nil {
			n.logf("cluster %s: leave notification to %s: %v", n.cfg.Self, addr, err)
		}
	}
}

// handleHeartbeat is the /cluster/heartbeat endpoint: merge the
// sender's view and answer with ours (pull-push gossip). It runs the
// same vet as every /cluster/ endpoint: without the shared secret an
// outsider must not be able to evict members or poison the view, and a
// zombie ex-primary (fenced after its standby promoted) is refused —
// and told so, with the fence epoch in the reply, so it learns its own
// death instead of gossiping stale state back into the view. Its
// entries must not be merged: a zombie's view still lists itself
// alive. The OK reply is stamped with this member's origin and epoch,
// so a sender that has fenced this address refuses the answer the same
// way (Tick).
func (n *Node) handleHeartbeat(_ context.Context, req *transport.Request) *transport.Response {
	ok, fence := vet(req, n.cfg.Secret, n.FenceOf)
	switch {
	case fence > 0:
		resp := transport.Errorf(transport.StatusForbidden, "cluster: %s fenced at epoch %d", origin(req), fence)
		resp.SetHeader(fencedEpochHeader, strconv.FormatUint(fence, 10))
		return resp
	case !ok:
		return transport.Errorf(transport.StatusForbidden, "cluster: missing or wrong cluster token")
	}
	if err := n.merge(req.Body); err != nil {
		return transport.Errorf(transport.StatusBadRequest, "cluster view: %v", err)
	}
	resp := transport.OK(n.viewDoc())
	stampReply(resp, n.cfg.Self, n.Epoch())
	return resp
}

// viewDoc renders the local view (plus piggybacked location updates)
// as a cluster-view XML document.
func (n *Node) viewDoc() []byte {
	n.mu.Lock()
	root := kxml.NewElement("cluster-view")
	root.SetAttr("from", n.cfg.Self)
	selfInc := n.selfInc
	root.SetAttr("inc", strconv.Itoa(selfInc))
	selfState := StateAlive
	if n.leaving {
		selfState = StateLeft
	}
	var selfLoad Load
	loadFn := n.loadFn
	usageFn := n.usageFn
	now := n.tick
	type row struct {
		addr  string
		state MemberState
		inc   int
		load  Load
		age   int
	}
	rows := make([]row, 0, len(n.members)+1)
	for addr, e := range n.members {
		rows = append(rows, row{addr, e.state, e.inc, e.load, now - e.lastSeen})
	}
	fences := make(map[string]uint64, len(n.fences))
	for addr, f := range n.fences {
		fences[addr] = f
	}
	n.mu.Unlock()

	// Load is read outside the lock: loadFn reaches into gateway state.
	if loadFn != nil {
		selfLoad = loadFn()
		n.mu.Lock()
		n.selfLoad = selfLoad // refresh the placement-path snapshot
		n.mu.Unlock()
	}
	rows = append(rows, row{n.cfg.Self, selfState, selfInc, selfLoad, 0})
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
	n.locs.appendRecent(root)
	return root.EncodeDocument()
}

// merge folds a cluster-view document into the local view, SWIM
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
func (n *Node) merge(doc []byte) error {
	root, err := kxml.ParseBytes(doc)
	if err != nil {
		return err
	}
	if root.Name != "cluster-view" {
		return errors.New("cluster: not a cluster-view document")
	}
	from := root.AttrDefault("from", "")
	selfFencedAt := uint64(0)
	usageRows := []TenantUsage{}
	n.mu.Lock()
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
			if epoch > n.fences[addr] {
				n.fences[addr] = epoch
				n.version++
			}
			if addr == n.cfg.Self && n.fences[addr] > n.Epoch() {
				selfFencedAt = n.fences[addr]
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
		if inc == math.MaxInt {
			continue // no incarnation could refute it
		}
		load := Load{
			QueueDepth: atoiDefault(child.AttrDefault("queue", "0")),
			InFlight:   atoiDefault(child.AttrDefault("inflight", "0")),
		}
		if addr == n.cfg.Self {
			if state != StateAlive && inc >= n.selfInc && !n.leaving {
				n.selfInc = inc + 1 // refutation
				n.version++
			}
			continue
		}
		direct := addr == from // the sender vouches for itself only
		e, ok := n.members[addr]
		if !ok {
			// Unknown member: adopt it with a fresh grace period — if it
			// is actually dead, our own suspicion will age it out.
			n.members[addr] = &memberInfo{state: state, inc: inc, load: load, lastSeen: n.tick}
			n.version++
			continue
		}
		switch {
		case inc > e.inc:
			if e.state != state {
				n.version++
			}
			e.inc, e.state, e.load = inc, state, load
			if direct {
				e.lastSeen = n.tick
			}
		case inc == e.inc:
			if direct {
				e.lastSeen = n.tick
				e.load = load
				if state == StateAlive && e.state != StateAlive && e.state != StateLeft {
					e.state = StateAlive
					n.version++
				}
				if state == StateLeft && e.state != StateLeft {
					e.state = StateLeft // graceful leave announcement
					n.version++
				}
			} else if rank(state) > rank(e.state) {
				e.state = state
				n.version++
			}
		}
	}
	// The sender vouches for its own usage: replace its rows wholesale
	// (an empty heartbeat clears stale tallies).
	if from != "" && from != n.cfg.Self {
		if e, ok := n.members[from]; ok {
			e.usage = usageRows
		}
	}
	n.mu.Unlock()
	if selfFencedAt > 0 {
		n.noteFenced(selfFencedAt)
	}
	n.locs.mergeFrom(root)
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

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
