package cluster

import (
	"strconv"
	"sync"

	"pdagent/internal/kxml"
)

// maxLocations bounds the location table; the oldest terminal
// entries are evicted first, then the oldest of all.
const maxLocations = 8192

// maxPiggyback bounds how many location updates ride one heartbeat.
const maxPiggyback = 128

// Location is one agent's entry in the replicated location directory:
// a forwarding pointer to the MAS currently (or last known to be)
// holding the agent, plus the gateway that owns its dispatch.
type Location struct {
	// AgentID is the agent.
	AgentID string
	// Addr is the MAS address the agent was last placed at (for a
	// departure this is the *destination* — a forwarding pointer).
	Addr string
	// HomeGW is the gateway whose embedded MAS is the agent's home
	// (where its journal and result document live).
	HomeGW string
	// Seq orders updates per agent: departures publish 2*hops+1,
	// arrivals 2*(hops+1), terminal delivery 2*hops+3 — later events
	// always carry higher numbers, so replicas converge regardless of
	// gossip order.
	Seq int
	// Terminal marks the journey over (result delivered or agent
	// disposed); the entry is then eviction-eligible.
	Terminal bool
}

// Locations is the agent-location table. Every cluster member holds a
// replica: local MAS hooks update it synchronously, and heartbeats
// piggyback recent updates so peers converge without extra round
// trips. Lookups answer with the freshest pointer seen; the gateway
// chase path treats it as a hint and still follows live moved-to
// pointers, so staleness costs hops, never correctness.
type Locations struct {
	mu      sync.Mutex
	byAgent map[string]*Location
	order   []string // insertion order for eviction
	recent  []string // agent ids with updates not yet gossiped
}

// NewLocations builds an empty table.
func NewLocations() *Locations {
	return &Locations{byAgent: map[string]*Location{}}
}

// Update folds one location event into the table; stale events (Seq
// not newer than the stored one) are ignored. Returns whether the
// event was applied.
func (l *Locations) Update(loc Location) bool {
	if loc.AgentID == "" {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.updateLocked(loc)
}

func (l *Locations) updateLocked(loc Location) bool {
	cur, ok := l.byAgent[loc.AgentID]
	if ok && loc.Seq <= cur.Seq {
		return false
	}
	if ok {
		// Preserve a known home gateway if the newer event omits it.
		if loc.HomeGW == "" {
			loc.HomeGW = cur.HomeGW
		}
		*cur = loc
	} else {
		entry := loc
		l.byAgent[loc.AgentID] = &entry
		l.order = append(l.order, loc.AgentID)
		l.evictLocked()
	}
	l.noteRecentLocked(loc.AgentID)
	return true
}

// noteRecentLocked queues an agent id for heartbeat piggyback.
func (l *Locations) noteRecentLocked(id string) {
	for _, r := range l.recent {
		if r == id {
			return
		}
	}
	l.recent = append(l.recent, id)
	if len(l.recent) > maxPiggyback {
		l.recent = l.recent[len(l.recent)-maxPiggyback:]
	}
}

// evictLocked enforces the size bound: terminal entries age out first,
// then the oldest entries of all. Eviction runs in batches — it kicks
// in at 9/8 of the cap and trims back down to the cap — so the O(n)
// sweep amortises over max/8 inserts instead of running per insert on
// a full table.
func (l *Locations) evictLocked() {
	if len(l.byAgent) <= maxLocations+maxLocations/8 {
		return
	}
	keep := l.order[:0]
	dropped := 0
	need := len(l.byAgent) - maxLocations
	for _, id := range l.order {
		e, ok := l.byAgent[id]
		if !ok {
			continue
		}
		if dropped < need && e.Terminal {
			delete(l.byAgent, id)
			dropped++
			continue
		}
		keep = append(keep, id)
	}
	l.order = keep
	for dropped < need && len(l.order) > 0 {
		id := l.order[0]
		l.order = l.order[1:]
		if _, ok := l.byAgent[id]; ok {
			delete(l.byAgent, id)
			dropped++
		}
	}
}

// Get returns the freshest known location of an agent.
func (l *Locations) Get(agentID string) (Location, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byAgent[agentID]
	if !ok {
		return Location{}, false
	}
	return *e, true
}

// Len returns the number of tracked agents.
func (l *Locations) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byAgent)
}

// appendRecent adds up to maxPiggyback <loc> elements (the most recent
// updates) to a cluster-view document and clears the pending set.
func (l *Locations) appendRecent(root *kxml.Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range l.recent {
		if e, ok := l.byAgent[id]; ok {
			appendLoc(root, *e)
		}
	}
	l.recent = l.recent[:0]
}

// mergeFrom folds the <loc> entries of a received cluster-view
// document into the table. Applied updates re-enter the piggyback
// queue, so location knowledge spreads transitively.
func (l *Locations) mergeFrom(root *kxml.Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, child := range root.Children {
		if child.Name != "loc" {
			continue
		}
		l.updateLocked(Location{
			AgentID:  child.AttrDefault("agent", ""),
			Addr:     child.AttrDefault("addr", ""),
			HomeGW:   child.AttrDefault("home-gw", ""),
			Seq:      atoiDefault(child.AttrDefault("seq", "0")),
			Terminal: child.AttrDefault("terminal", "") == "1",
		})
	}
}

// EncodeUpdate renders one location event as a standalone document for
// the /cluster/loc push endpoint.
func EncodeUpdate(loc Location) []byte {
	root := kxml.NewElement("cluster-view")
	root.SetAttr("from", "")
	appendLoc(root, loc)
	return root.EncodeDocument()
}

// appendLoc renders one location as a <loc> element of root.
func appendLoc(root *kxml.Node, loc Location) {
	n := root.AddElement("loc")
	n.SetAttr("agent", loc.AgentID)
	n.SetAttr("addr", loc.Addr)
	n.SetAttr("home-gw", loc.HomeGW)
	n.SetAttr("seq", strconv.Itoa(loc.Seq))
	if loc.Terminal {
		n.SetAttr("terminal", "1")
	}
}
