package gateway

import (
	"context"
	"fmt"

	"pdagent/internal/cluster"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
)

// This file is the warm-standby promotion path (DESIGN.md §10). Every
// embedder makes one call when its cluster node evicts a member
// (cluster.Config.OnEvict): PromoteOver. The member holding the dead
// member's replicas fences the dead instance, takes and materialises
// the replicas, and answers for the dead member: its journaled agents
// resume their journeys from the replica (exactly-once — the journal's
// dedup watermarks ride along), the location directory re-points at
// this member, and the dead member's device mailboxes are imported
// (event-id dedup keeps entries the devices already fetched from
// double-delivering).

// Promotion reports one warm-standby takeover: By adopted Dead's
// replicated state behind fencing epoch Fence.
type Promotion struct {
	Dead, By          string
	Fence             uint64
	Agents, Mailboxes int
}

// PromoteOver runs the failover for one evicted member. If this member
// holds dead's replicas, it raises the fence over dead, takes the
// replicas (consuming them, so a repeated call adopts nothing) and
// adopts dead's agents and mailboxes. It returns nil, nil when this
// member holds no replica of dead.
func (g *Gateway) PromoteOver(ctx context.Context, dead string) (*Promotion, error) {
	node, peer := g.cfg.Cluster, g.cfg.Repl
	if node == nil || peer == nil || !peer.Has(dead) {
		return nil, nil
	}
	// Fence first: from this heartbeat on, the ex-primary's streams and
	// dispatches are refused fleet-wide, so adoption cannot race a
	// zombie still answering requests.
	p := &Promotion{Dead: dead, By: g.cfg.Addr, Fence: node.RaiseFence(dead)}
	var journal, mailbox rms.Store
	for role, r := range peer.Take(dead) {
		switch role {
		case repl.RoleJournal:
			journal = r.NewStore("replica-journal-" + dead)
		case repl.RoleMailbox:
			mailbox = r.NewStore("replica-mailbox-" + dead)
		}
	}
	if journal == nil && mailbox == nil {
		return nil, nil // a concurrent call took the replicas
	}
	g.logf("gateway %s: promoting over evicted %s (fence epoch %d)", g.cfg.Addr, dead, p.Fence)
	if journal != nil {
		adopted, err := g.mas.AdoptJournal(ctx, dead, journal)
		if err != nil {
			return nil, fmt.Errorf("gateway %s: adopting %s's journal: %w", g.cfg.Addr, dead, err)
		}
		// Re-point the location directory: every adopted agent now lives
		// (and is homed) here. The promotion update must outrank whatever
		// the dead member last published for the agent, so it advances
		// that entry's sequence rather than deriving one from hop counts.
		for _, id := range adopted {
			seq := 1
			if loc, ok := node.Locations().Get(id); ok {
				seq = loc.Seq + 1
			}
			node.PublishLocation(ctx, cluster.Location{
				AgentID: id, Addr: g.cfg.Addr, HomeGW: g.cfg.Addr, Seq: seq,
			})
		}
		p.Agents = len(adopted)
	}
	if mailbox != nil {
		var err error
		if p.Mailboxes, err = g.importMailboxes(dead, mailbox); err != nil {
			return nil, err
		}
	}
	g.logf("gateway %s: promoted over %s: %d agent(s) adopted, %d mailbox(es) imported",
		g.cfg.Addr, dead, p.Agents, p.Mailboxes)
	return p, nil
}

// importMailboxes folds a dead member's mailbox replica into the local
// hub. A throwaway hub is opened over the replica store (reusing the
// hub's own recovery scan), then each device's pending entries are
// imported — re-sequenced, deduplicated by event id, the device's
// access token carried along, exactly like a live migration pull.
func (g *Gateway) importMailboxes(from string, store rms.Store) (int, error) {
	tmp, err := push.NewHub(push.Config{Store: store, Logf: g.cfg.Logf})
	if err != nil {
		return 0, fmt.Errorf("gateway %s: opening %s's mailbox replica: %w", g.cfg.Addr, from, err)
	}
	defer tmp.Close()
	imported := 0
	for _, device := range tmp.Devices() {
		if entries := tmp.Export(device); len(entries) > 0 {
			if _, err := g.hub.Import(device, entries); err != nil {
				g.logf("gateway %s: importing %s's mailbox of %s: %v", g.cfg.Addr, from, device, err)
				continue
			}
		}
		// The device keeps authenticating with the token the dead member
		// minted (AdoptToken is a no-op if we already issued our own),
		// and keeps billing to the account the dead member bound
		// (SetTenant likewise keeps any existing binding).
		if tok := tmp.TokenOf(device); tok != "" {
			g.hub.AdoptToken(device, tok)
		}
		g.hub.SetTenant(device, tmp.TenantOf(device))
		imported++
	}
	return imported, nil
}
