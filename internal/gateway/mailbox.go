package gateway

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// This file is the gateway half of the disconnection-tolerant device
// sessions (DESIGN.md §7). The push.Hub owns the durable per-device
// mailboxes; the code here feeds it — result documents the moment an
// agent comes home, status changes, management notifications — and
// serves the delivery endpoints the device platform polls. Every mailbox
// answer a device receives is one LZSS frame of the mailbox document
// (push.EncodeDelivery); the /cluster/ documents stay raw:
//
//	/pdagent/mailbox/poll   fetch + ack; with a wait, parks until mail
//	                        arrives or the wait ends. The ack is staged
//	                        and rides the mailbox's next commit; an
//	                        answer that goes out empty commits it
//	/pdagent/mailbox        the same handler, for older devices
//	/cluster/mailbox/export peer pulls a device's mailbox (migration)
//	/cluster/mailbox/ack    peer confirms the pulled entries landed
//
// Clustered fleets keep each device's mailbox at the edge member the
// device talks to: the existing result relay already lands forwarded
// results there, and when a device reconnects through a different
// member, that member pulls the old mailbox on demand (the same
// push-with-pull-repair shape as the result relay itself).

// MailboxConfig enables the mailbox subsystem on a gateway.
type MailboxConfig struct {
	// Store backs the mailboxes; a persistent store makes them survive
	// gateway restarts (default: in-memory).
	Store rms.Store
	// TTL expires undelivered entries (0 = keep until quota).
	TTL time.Duration
	// Quota bounds each device's pending entries (default
	// push.DefaultQuota).
	Quota int
	// DedupTTL ages delivered event ids out of the hub's dedup windows
	// (see push.Config.DedupTTL; 0 = push.DefaultDedupTTL).
	DedupTTL time.Duration
	// ResultTTL expires stored result documents from the gateway's File
	// Directory once collectable for this long (0 = keep forever). The
	// Sweep method enforces it together with the mailbox TTL.
	ResultTTL time.Duration
}

// Mailbox exposes the gateway's mailbox hub (tests, metrics); nil when
// the subsystem is disabled.
func (g *Gateway) Mailbox() *push.Hub { return g.hub }

// ResultsSwept reports how many result documents the TTL sweeper has
// reclaimed from the File Directory.
func (g *Gateway) ResultsSwept() uint64 { return g.resultsSwept.Load() }

// Sweep runs one retention pass: result documents collectable longer
// than MailboxConfig.ResultTTL are deleted from the File Directory (the
// agents flip to the terminal "expired" state), and mailbox entries
// past their TTL are dropped. It returns the number of reclaimed result
// documents and expired mailbox entries. Daemons drive it on a ticker;
// simulations call it directly.
func (g *Gateway) Sweep() (results, mailbox int) {
	if mc := g.cfg.Mailbox; mc != nil && mc.ResultTTL > 0 {
		for _, ex := range g.reg.ExpireResults(time.Now().Add(-mc.ResultTTL)) {
			if ex.DocID != 0 {
				_ = g.cfg.Documents.Delete(ex.DocID)
			}
			results++
			// The owner may be offline: leave a status entry so the
			// expiry is visible on the next session, not silent.
			g.enqueueNote(ex.AgentID, "", push.KindStatus, "expired:"+ex.AgentID,
				"result expired (retention TTL)")
		}
		g.resultsSwept.Add(uint64(results))
		// Expired agents leave tombstones so a late status/result request
		// answers "expired", not "unknown". Reclaim the tombstones
		// themselves once well past any plausible client retry — without
		// this the registry grows by every agent ever dispatched.
		retain := goneTombstoneRetention * mc.ResultTTL
		if retain < minGoneTombstoneRetention {
			retain = minGoneTombstoneRetention
		}
		g.reg.PruneGone(time.Now().Add(-retain))
	}
	if g.hub != nil {
		mailbox = g.hub.SweepExpired()
	}
	return results, mailbox
}

// enqueueResult files a completed journey's result document into the
// owner's mailbox. Dedup key is the agent id: a crash-replayed arrival
// or a retried cluster relay cannot produce a second copy. The error
// is the mailbox store refusing the commit.
func (g *Gateway) enqueueResult(rd *wire.ResultDocument, doc []byte) error {
	if g.hub == nil {
		return nil
	}
	_, dup, err := g.hub.Enqueue(rd.Owner, push.KindResult, rd.AgentID, "result:"+rd.AgentID, doc)
	if err != nil {
		return fmt.Errorf("mailbox enqueue for %s: %w", rd.AgentID, err)
	}
	if dup {
		g.logf("gateway %s: mailbox already holds result of %s", g.cfg.Addr, rd.AgentID)
	} else {
		g.trace.Record(rd.AgentID, "mailbox", rd.Owner)
	}
	return nil
}

// enqueueNote files a short status/management notification. owner may
// be empty when only the agent id is known; the registry resolves it.
func (g *Gateway) enqueueNote(agentID, owner, kind, eventID, note string) {
	if g.hub == nil {
		return
	}
	if owner == "" {
		st, ok := g.reg.Agent(agentID)
		if !ok || st.Owner == "" {
			return
		}
		owner = st.Owner
	}
	if _, _, err := g.hub.Enqueue(owner, kind, agentID, eventID, []byte(note)); err != nil {
		g.logf("gateway %s: mailbox note for %s: %v", g.cfg.Addr, agentID, err)
	}
}

// attachMail turns an OK dispatch answer into a mailbox delivery for a
// device that asked for one: whatever is pending beyond its cursor, the
// journey just admitted included if it is already over, rides the
// answer as the frame a poll would have fetched, the agent id in the
// header alone. With nothing pending (the agent travels, a forwarded
// journey's result is not relayed yet) the answer goes out as it is and
// the device long-polls.
func (g *Gateway) attachMail(device string, resp *transport.Response) *transport.Response {
	entries, watermark, evicted, err := g.hub.PollStaged(device, 0, defaultPollBatch)
	if err != nil || len(entries) == 0 {
		return resp
	}
	g.mailDispatch.Add(uint64(len(entries)))
	out := transport.OK(push.EncodeDelivery(device, entries, watermark, evicted))
	out.SetHeader("agent", resp.GetHeader("agent"))
	return out
}

// --- device-facing delivery endpoints -----------------------------------

// defaultPollBatch bounds one poll response when the device does not
// ask for a size.
const defaultPollBatch = 32

// maxLongPoll bounds how long a poll may park, whatever the device
// asks for.
const maxLongPoll = 2 * time.Minute

// handleMailbox serves every device mailbox read: acknowledge the
// cursor, answer what is pending beyond it, and, when nothing is and the
// device asked to wait, park until mail arrives. Headers: device
// (required), ack (cursor watermark the device has durably processed),
// max (batch bound), wait (long-poll duration, e.g. "30s"), prev-edge
// (the member the device previously talked to; triggers an on-demand
// mailbox pull). The ack never waits for its commit (DESIGN.md §7): it
// is staged and rides the fsync of the device's next enqueue, and an
// answer that goes out empty commits it, so a drained or idle device
// leaves nothing staged. Parked time is included in the latency
// histogram by design: its p99 tracks the wait ceiling, its p50 how
// often devices find mail already pending.
func (g *Gateway) handleMailbox(ctx context.Context, req *transport.Request) *transport.Response {
	start := time.Now()
	resp := g.serveMailbox(ctx, req)
	g.mMailboxUs.Observe(time.Since(start))
	return resp
}

func (g *Gateway) serveMailbox(ctx context.Context, req *transport.Request) *transport.Response {
	if g.hub == nil {
		return transport.Errorf(transport.StatusNotFound, "gateway %s has no mailbox subsystem", g.cfg.Addr)
	}
	device := req.GetHeader("device")
	if device == "" {
		return transport.Errorf(transport.StatusBadRequest, "mailbox requests need a device header")
	}
	after, err := strconv.ParseUint(defaultStr(req.GetHeader("ack"), "0"), 10, 64)
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "bad ack watermark: %v", err)
	}
	max, err := strconv.Atoi(defaultStr(req.GetHeader("max"), "0"))
	if err != nil {
		return transport.Errorf(transport.StatusBadRequest, "bad max: %v", err)
	}
	if max <= 0 {
		max = defaultPollBatch
	}
	wait, err := time.ParseDuration(defaultStr(req.GetHeader("wait"), "0s"))
	if err != nil || wait < 0 {
		wait = 0
	}
	wait = min(wait, maxLongPoll)

	// The mailbox follows the device: if it last talked to another
	// member, pull whatever that member still holds before answering.
	// prev-edge is client-supplied, so it is honoured only when it
	// names a live cluster member — the pull travels with the shared
	// cluster secret, and forwarding it to an arbitrary address would
	// hand that secret to whoever the client pointed us at.
	if prev := req.GetHeader("prev-edge"); prev != "" && prev != g.cfg.Addr &&
		g.cfg.Cluster != nil && g.isClusterMember(prev) {
		g.pullMailboxFrom(ctx, prev, device, req.GetHeader("mailbox-token"))
	}

	// A device with no mailbox — never dispatched here, nothing pulled
	// from its previous edge — gets an empty answer without parking, so
	// a scanner looping over made-up device names cannot grow the hub.
	if !g.hub.Known(device) {
		return transport.OK(push.EncodeDelivery(device, nil, after, 0))
	}
	// Reading and (destructively) acknowledging mail requires the
	// mailbox token the device received on its authenticated dispatch:
	// device names are guessable, and an unauthenticated ack would let
	// anyone silently delete a victim's undelivered results.
	if !g.hub.CheckToken(device, req.GetHeader("mailbox-token")) {
		return transport.Errorf(transport.StatusUnauthorized,
			"mailbox access requires the device's mailbox token")
	}

	// Presence: the device counts as connected for the duration of the
	// request (a parked long-poll keeps it connected the whole wait).
	disconnect := g.hub.Connect(device)
	defer disconnect()

	entries, watermark, evicted, err := g.hub.PollStaged(device, after, max)
	if err == nil && len(entries) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-g.hub.Wait(device): // wait-free fan-out from Enqueue
		case <-ctx.Done():
		case <-timer.C:
		}
		timer.Stop()
		entries, watermark, evicted, err = g.hub.PollStaged(device, after, max)
	}
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "mailbox poll: %v", err)
	}
	if len(entries) == 0 {
		// Ending empty, nobody is kept waiting for mail: commit what is
		// staged, so a drained device's acks do not sit in memory until
		// its next enqueue. (The ack stands even if persisting it fails;
		// the hub logs that.)
		_, _ = g.hub.Ack(device, after)
	}
	if wait > 0 {
		g.mailPoll.Add(uint64(len(entries)))
	} else {
		g.mailFetch.Add(uint64(len(entries)))
	}
	return transport.OK(push.EncodeDelivery(device, entries, watermark, evicted))
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// --- cluster migration (the mailbox follows the device) -----------------

// isClusterMember reports whether addr is in the live membership view
// (self included).
func (g *Gateway) isClusterMember(addr string) bool {
	if addr == g.cfg.Addr {
		return true
	}
	for _, a := range g.cfg.Cluster.Membership().AliveAddrs() {
		if a == addr {
			return true
		}
	}
	return false
}

// mailboxPullTimeout bounds one migration pull; like the result relay,
// it runs on a foreground path (the device's poll), so a hung previous
// edge must not stall it for the transport's full default timeout.
const mailboxPullTimeout = 5 * time.Second

// maxConcurrentMailboxPulls bounds how many migration pulls one
// gateway runs at once. In a reconnect storm — a cell tower comes
// back and 100k devices land on a new edge inside seconds — every
// poll would otherwise fan an export request at the devices' previous
// member, and the herd would take down exactly the node the fleet is
// failing away from.
const maxConcurrentMailboxPulls = 32

// goneTombstoneRetention is how many ResultTTLs an expired agent's
// registry tombstone outlives its result, covering stragglers that ask
// about it long after expiry; minGoneTombstoneRetention floors it for
// configs with very short ResultTTLs.
const (
	goneTombstoneRetention    = 4
	minGoneTombstoneRetention = time.Minute
)

// pullMailboxFrom migrates a device's mailbox from the member it
// previously talked to, with two layers of thundering-herd
// protection: concurrent polls for the same device coalesce onto one
// pull (per-device singleflight — duplicate pulls are harmless thanks
// to import dedup, but a parked fleet re-polling would multiply load),
// and pulls for distinct devices share a bounded semaphore so a storm
// reaches the previous edge as a trickle, not a wave.
func (g *Gateway) pullMailboxFrom(ctx context.Context, prev, device, tok string) {
	g.mbPullMu.Lock()
	if ch, inflight := g.mbPullInflight[device]; inflight {
		g.mbPullMu.Unlock()
		g.mbPullShared.Add(1)
		// Ride the winner's pull: by the time it finishes, the entries
		// are importable locally and this poll serves them.
		select {
		case <-ch:
		case <-ctx.Done():
		}
		return
	}
	ch := make(chan struct{})
	g.mbPullInflight[device] = ch
	g.mbPullMu.Unlock()
	defer func() {
		g.mbPullMu.Lock()
		delete(g.mbPullInflight, device)
		g.mbPullMu.Unlock()
		close(ch)
	}()
	select {
	case g.mbPullSem <- struct{}{}:
		defer func() { <-g.mbPullSem }()
	case <-ctx.Done():
		return // the next session retries the pull
	}
	g.mbPullStarted.Add(1)
	g.pullMailboxDirect(ctx, prev, device, tok)
}

// MailboxPullStats reports migration-pull counters: pulls actually
// sent to a previous edge, and polls that coalesced onto another
// in-flight pull for the same device (tests, metrics).
func (g *Gateway) MailboxPullStats() (started, shared uint64) {
	return g.mbPullStarted.Load(), g.mbPullShared.Load()
}

// pullMailboxDirect performs one pull: export the pending entries,
// adopt them locally (re-sequenced, deduplicated by event id, the
// access token carried along), then acknowledge so the source retires
// them. Best-effort — on any failure the entries stay at the source
// and the next session retries the pull.
func (g *Gateway) pullMailboxDirect(ctx context.Context, prev, device, tok string) {
	ctx, cancel := context.WithTimeout(ctx, mailboxPullTimeout)
	defer cancel()
	exp := &transport.Request{Path: "/cluster/mailbox/export"}
	exp.SetHeader("device", device)
	// The device's own token rides along: the source refuses to export
	// without it, so only the device can move its mailbox — an
	// unauthenticated poll cannot displace a victim's mail to another
	// member.
	exp.SetHeader("mailbox-token", tok)
	resp, err := g.cfg.Cluster.Forwarder().Forward(ctx, prev, exp)
	if err != nil || !resp.IsOK() {
		if err == nil {
			err = resp.Err()
		}
		g.logf("gateway %s: mailbox pull for %s from %s: %v", g.cfg.Addr, device, prev, err)
		return
	}
	_, entries, watermark, _, token, tenantID, err := push.ParseEntries(resp.Body)
	if err != nil {
		g.logf("gateway %s: mailbox pull for %s from %s: %v", g.cfg.Addr, device, prev, err)
		return
	}
	if len(entries) == 0 {
		return
	}
	n, err := g.hub.Import(device, entries)
	if err != nil {
		g.logf("gateway %s: adopting mailbox of %s: %v", g.cfg.Addr, device, err)
		return
	}
	// The device keeps authenticating with the token its original edge
	// minted, and keeps billing to the account it was bound to there.
	g.hub.AdoptToken(device, token)
	g.hub.SetTenant(device, tenantID)
	ack := &transport.Request{Path: "/cluster/mailbox/ack"}
	ack.SetHeader("device", device)
	ack.SetHeader("upto", strconv.FormatUint(watermark, 10))
	if _, err := g.cfg.Cluster.Forwarder().Forward(ctx, prev, ack); err != nil {
		// The import deduplicates by event id, so a re-pull after this
		// lost ack cannot double-deliver.
		g.logf("gateway %s: acking mailbox pull for %s at %s: %v", g.cfg.Addr, device, prev, err)
	}
	g.logf("gateway %s: migrated %d mailbox entr(ies) of %s from %s", g.cfg.Addr, n, device, prev)
}

// handleClusterMailboxExport serves a device's pending entries to the
// member the device reconnected through. The entries are kept until
// that member acknowledges them.
func (g *Gateway) handleClusterMailboxExport(_ context.Context, req *transport.Request) *transport.Response {
	if !g.cfg.Cluster.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "mailbox export requires the cluster token")
	}
	if g.hub == nil {
		return transport.Errorf(transport.StatusNotFound, "gateway %s has no mailbox subsystem", g.cfg.Addr)
	}
	device := req.GetHeader("device")
	if device == "" {
		return transport.Errorf(transport.StatusBadRequest, "mailbox export needs a device header")
	}
	if !g.hub.Known(device) {
		return transport.OK(push.EncodeExport(device, nil, 0, "", ""))
	}
	// The pulling member relays the device's own token; without it the
	// mailbox stays here (a member can be coaxed into *asking* by an
	// unauthenticated poll, so membership alone must not move mail).
	if !g.hub.CheckToken(device, req.GetHeader("mailbox-token")) {
		return transport.Errorf(transport.StatusUnauthorized,
			"mailbox export requires the device's mailbox token")
	}
	entries := g.hub.Export(device)
	watermark := uint64(0)
	if len(entries) > 0 {
		watermark = entries[len(entries)-1].Seq
	}
	return transport.OK(push.EncodeExport(device, entries, watermark, g.hub.TokenOf(device), g.hub.TenantOf(device)))
}

// handleClusterMailboxAck retires entries a peer pulled (they are now
// that member's responsibility).
func (g *Gateway) handleClusterMailboxAck(_ context.Context, req *transport.Request) *transport.Response {
	if !g.cfg.Cluster.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "mailbox ack requires the cluster token")
	}
	if g.hub == nil {
		return transport.Errorf(transport.StatusNotFound, "gateway %s has no mailbox subsystem", g.cfg.Addr)
	}
	device := req.GetHeader("device")
	upTo, err := strconv.ParseUint(req.GetHeader("upto"), 10, 64)
	if device == "" || err != nil {
		return transport.Errorf(transport.StatusBadRequest, "mailbox ack needs device and upto headers")
	}
	n, err := g.hub.Ack(device, upTo)
	if err != nil {
		return transport.Errorf(transport.StatusServerError, "mailbox ack: %v", err)
	}
	return transport.OKText(strconv.Itoa(n))
}
