package gateway

import (
	"context"
	"time"

	"pdagent/internal/cluster"
	"pdagent/internal/mas"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// This file is the gateway half of the clustered middle tier
// (DESIGN.md §6). The cluster.Node owns membership, the placement
// ring and the replicated location directory; the code here consumes
// them: dispatches are routed to their consistent-hash home member,
// results of forwarded dispatches are relayed back to the edge, MAS
// location events feed the directory, and a draining gateway hands
// its traffic to the rest of the fleet.

// load reports this gateway's spill signal: in-flight dispatches from
// the registry gauge plus the embedded MAS's resident agents.
func (g *Gateway) load() cluster.Load {
	return cluster.Load{
		QueueDepth: g.mas.ResidentCount(),
		InFlight:   g.reg.InFlight(),
	}
}

// onAgentMove feeds embedded-MAS location events into the replicated
// directory (synchronously, so the fleet view is updated by the time
// a hop is acked).
func (g *Gateway) onAgentMove(ctx context.Context, mv mas.AgentMove) {
	g.cfg.Cluster.PublishLocation(ctx, cluster.Location{
		AgentID: mv.AgentID, Addr: mv.Addr, HomeGW: g.cfg.Addr,
		Seq: mv.Seq, Terminal: mv.Terminal,
	})
}

// chaseStart picks where a status chase begins and where it falls
// back to: start is the location directory's freshest pointer when
// clustered, fallback is the agent's home MAS (this gateway, or the
// home member for forwarded dispatches), which always has the root of
// the pointer chain.
func (g *Gateway) chaseStart(agentID string, st AgentStatus) (start, fallback string) {
	fallback = g.cfg.Addr
	if st.HomeGW != "" {
		fallback = st.HomeGW
	}
	if g.cfg.Cluster != nil {
		if loc, ok := g.cfg.Cluster.Locations().Get(agentID); ok && loc.Addr != "" {
			return loc.Addr, fallback
		}
	}
	return fallback, fallback
}

// routeDispatch decides whether an authenticated dispatch belongs on
// another member and forwards it there. The second return is false
// when the dispatch should be admitted locally (we are the home, the
// cluster is degenerate, or every forward target failed and local
// admission is the fallback of last resort — the edge always can,
// it holds the compiled source).
func (g *Gateway) routeDispatch(ctx context.Context, pi *wire.PackedInformation, tenantID string) (*transport.Response, bool) {
	node := g.cfg.Cluster
	key := cluster.SubscriptionKey(pi.CodeID, pi.Owner)
	home := node.Home(key)
	if home == "" || home == g.cfg.Addr {
		return nil, false
	}
	tried := map[string]bool{}
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := g.forwardDispatch(ctx, home, pi, tenantID)
		if err == nil && resp.Status != transport.StatusUnavailable {
			if resp.IsOK() {
				agentID := resp.GetHeader("agent")
				if agentID == "" {
					agentID = resp.Text()
				}
				// Track the remote agent so result/status requests from
				// the device route to its home member, and bind the nonce
				// so a device retry of this upload answers idempotently.
				g.reg.CreateAgent(agentID, pi.CodeID, pi.Owner, tenantID, "", home)
				g.reg.BindNonce(pi.CodeID, pi.Owner, pi.Nonce, agentID)
				g.mForwarded.Inc()
				g.trace.Record(agentID, "forward", home)
				g.logf("gateway %s: dispatch %s homed on %s (agent %s)", g.cfg.Addr, pi.CodeID, home, agentID)
			} else {
				// The home refused the admission outright: release the
				// edge's nonce record so a retry of the same upload is
				// not refused as a replay of a dispatch that never
				// happened.
				g.reg.ForgetNonce(pi.CodeID, pi.Owner, pi.Nonce)
			}
			return resp, true
		}
		if err != nil && !transport.NotDelivered(err) {
			// Ambiguous failure: the home may have admitted the agent
			// and only the ack was lost. Admitting a second copy here
			// (or on another member) would break exactly-once — fail
			// loud instead. The consumed nonce makes any blind retry
			// dedup rather than double-admit.
			g.logf("gateway %s: forward of %s to %s ambiguous (%v); refusing to re-admit", g.cfg.Addr, pi.CodeID, home, err)
			return transport.Errorf(transport.StatusUnavailable,
				"dispatch handed to member %s but its fate is unknown: %v", home, err), true
		}
		// The forward provably never reached the home member (host
		// down, partition, connection refused) or it explicitly refused
		// before admission (draining): reroute along the ring — the
		// same walk a rebalance after its eviction would take.
		tried[home] = true
		next := node.HomeExcluding(key, tried)
		if next == "" || next == g.cfg.Addr || tried[next] {
			return nil, false
		}
		g.logf("gateway %s: home %s unreachable for %s, rerouting to %s", g.cfg.Addr, home, pi.CodeID, next)
		home = next
	}
	return nil, false
}

// forwardDispatch hands an authenticated PI to its home member. The
// body is the plain PI document: the device's Figure-7 envelope was
// already opened at the edge (it is sealed to the edge's key), and the
// middle-tier backbone is the trusted side of the paper's model. The
// tenant resolved from the edge's subscription table rides as a header
// (only the authenticated cluster hop may set it — devices cannot),
// so the home member bills the journey to the right account.
func (g *Gateway) forwardDispatch(ctx context.Context, home string, pi *wire.PackedInformation, tenantID string) (*transport.Response, error) {
	doc, err := pi.EncodeXML()
	if err != nil {
		return nil, err
	}
	req := &transport.Request{Path: "/cluster/dispatch", Body: doc}
	req.SetHeader("origin", g.cfg.Addr)
	if tenantID != "" {
		req.SetHeader("tenant", tenantID)
	}
	return g.cfg.Cluster.Forward(ctx, home, req)
}

// handleClusterDispatch admits a dispatch forwarded by a peer member.
// The device-facing Figure-7 authentication happened at the edge; this
// endpoint instead demands the shared cluster secret (the hop-chain
// header alone is client-settable and proves nothing), refuses new
// work when draining, and dedups the nonce against its own replay
// window (an edge retrying a lost forward must not create a second
// agent).
func (g *Gateway) handleClusterDispatch(ctx context.Context, req *transport.Request) *transport.Response {
	if !g.cfg.Cluster.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "cluster dispatch requires the cluster token")
	}
	if !cluster.Forwarded(req) {
		return transport.Errorf(transport.StatusForbidden, "cluster dispatch requires a forwarded request")
	}
	if g.draining.Load() {
		return transport.Errorf(transport.StatusUnavailable, "gateway %s is draining", g.cfg.Addr)
	}
	if why := g.unhealthy(); why != "" {
		return transport.Errorf(transport.StatusUnavailable, "gateway %s refusing dispatches: %s", g.cfg.Addr, why)
	}
	pi, err := wire.ParsePackedInformation(req.Body)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "forwarded packed information: %v", err)
	}
	origin := req.GetHeader("origin")
	if origin == "" {
		origin = cluster.Chain(req)[0]
	}
	// The edge resolved the tenant from its subscription table and
	// forwarded it; this endpoint is cluster-token-gated, so the header
	// is trusted the way the PI itself is.
	tenantID := req.GetHeader("tenant")
	if pi.Nonce != "" && !g.reg.RememberNonce(pi.CodeID, pi.Owner, pi.Nonce) {
		// An edge retrying a forward whose ack was lost: if the earlier
		// admission completed, answer with the original agent id so the
		// retry dedups instead of erroring.
		if agentID := g.reg.NonceAgent(pi.CodeID, pi.Owner, pi.Nonce); agentID != "" {
			return agentAnswer(agentID)
		}
		return transport.Errorf(transport.StatusConflict,
			"replayed packed information (nonce already used)")
	}
	return g.admitDispatch(ctx, pi, origin, tenantID)
}

// resultRelayTimeout bounds one best-effort result relay; a missed
// relay is repaired on demand by fetchRemoteResult.
const resultRelayTimeout = 5 * time.Second

// relayResult pushes a completed result document to the edge member
// whose device owns the dispatch. Best-effort: on failure the edge
// still fetches on demand via fetchRemoteResult. onAgentHome hands it
// to Spawn, and — like the location pushes — it gets its own wall
// deadline: a hung origin member must not pin goroutines.
func (g *Gateway) relayResult(ctx context.Context, origin string, rd *wire.ResultDocument, doc []byte) {
	ctx, cancel := context.WithTimeout(ctx, resultRelayTimeout)
	defer cancel()
	req := &transport.Request{Path: "/cluster/result", Body: doc}
	req.SetHeader("agent", rd.AgentID)
	resp, err := g.cfg.Cluster.Forward(ctx, origin, req)
	if err != nil {
		g.logf("gateway %s: relaying result of %s to %s: %v", g.cfg.Addr, rd.AgentID, origin, err)
		return
	}
	if !resp.IsOK() {
		g.logf("gateway %s: relaying result of %s to %s: %s", g.cfg.Addr, rd.AgentID, origin, resp.Text())
		return
	}
	g.mRelayed.Inc()
	g.trace.Record(rd.AgentID, "relay-result", origin)
}

// handleClusterResult receives a relayed result document from the home
// member and completes the local tracking entry, waking watchers.
func (g *Gateway) handleClusterResult(_ context.Context, req *transport.Request) *transport.Response {
	if !g.cfg.Cluster.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "cluster result requires the cluster token")
	}
	rd, err := wire.ParseResultDocument(req.Body)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "relayed result document: %v", err)
	}
	if err := g.adoptResult(rd, req.Body); err != nil {
		return transport.Errorf(transport.StatusServerError, "storing relayed result: %v", err)
	}
	return transport.OKText("adopted " + rd.AgentID)
}

// adoptResult stores a result document produced on another member and
// marks the agent complete locally. Idempotent: a second copy of an
// already-completed agent's document is ignored — and the mailbox
// enqueue dedups on the agent id, so a relay retry racing an on-demand
// fetch still files exactly one mailbox entry.
func (g *Gateway) adoptResult(rd *wire.ResultDocument, doc []byte) error {
	if st, ok := g.reg.Agent(rd.AgentID); ok && st.Done {
		return nil
	}
	// This member is the edge the device talks to: the result lands in
	// its mailbox here, ready for the next (re)connection.
	if err := g.fileResult(rd, doc, "adopt-result", true); err != nil {
		return err
	}
	g.mAdopted.Inc()
	g.logf("gateway %s: adopted result for agent %s", g.cfg.Addr, rd.AgentID)
	return nil
}

// fetchRemoteResult pulls a forwarded dispatch's result from its home
// member when the push relay has not arrived (lost, or the home
// restarted). A StatusConflict from the home means the agent is
// genuinely still travelling; that status passes through unchanged.
func (g *Gateway) fetchRemoteResult(ctx context.Context, agentID string, st AgentStatus) *transport.Response {
	req := &transport.Request{Path: "/pdagent/result"}
	req.SetHeader("agent", agentID)
	resp, err := g.cfg.Cluster.Forward(ctx, st.HomeGW, req)
	if err != nil {
		return transport.Errorf(transport.StatusConflict,
			"agent %q still travelling (home %s unreachable: %v)", agentID, st.HomeGW, err)
	}
	if !resp.IsOK() {
		return resp
	}
	rd, err := wire.ParseResultDocument(resp.Body)
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "result from %s: %v", st.HomeGW, err)
	}
	if err := g.adoptResult(rd, resp.Body); err != nil {
		g.logf("gateway %s: caching fetched result for %s: %v", g.cfg.Addr, agentID, err)
	}
	return transport.OK(resp.Body)
}

// --- graceful shutdown --------------------------------------------------

// BeginDrain flips the gateway into draining mode: /pdagent/dispatch
// and /cluster/dispatch answer StatusUnavailable so devices and peers
// take their traffic elsewhere. Idempotent.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Draining reports whether BeginDrain ran.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Drain performs the graceful-shutdown sequence: stop accepting
// dispatches, deregister from the cluster (peers drop this member
// immediately instead of suspecting it), then wait — bounded by ctx —
// for the embedded MAS to finish or ship out its resident agents and
// for the result relays they left behind. It returns the number of
// agents still resident (plus relays unfinished) when it gave up (0 on
// a clean drain). The caller still owns Close.
func (g *Gateway) Drain(ctx context.Context) int {
	g.BeginDrain()
	if g.cfg.Cluster != nil {
		g.cfg.Cluster.Leave(ctx)
	}
	for {
		n := g.mas.ResidentCount() + int(g.relays.Load())
		if n == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return n
		case <-time.After(50 * time.Millisecond):
		}
	}
}
