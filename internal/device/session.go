package device

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Device sessions (DESIGN.md §7): the disconnection-tolerant side of
// the platform. While the uplink is down the application keeps working
// offline — service executions are queued in the RMS database — and on
// reconnection OpenSession drains the queue and then pulls the device's
// gateway mailbox: result documents, status changes and management
// notifications that accumulated while the device was away. Delivery is
// cursor-based: the device persists the acknowledged watermark per
// gateway, so a crash on either side never loses or duplicates a
// notification.

// ErrNoSessionGateway means OpenSession found no gateway to talk to
// (never dispatched, and the gateway list is empty).
var ErrNoSessionGateway = errors.New("device: no session gateway")

// errNoMailboxAccess marks a mailbox poll refused for lack of a valid
// token; sessions degrade to the pull-repair path instead of failing.
var errNoMailboxAccess = errors.New("device: no mailbox access token")

// Delivery is one mailbox item handed to the application.
type Delivery struct {
	// Seq is the gateway-assigned mailbox sequence number.
	Seq uint64
	// Kind is push.KindResult, push.KindStatus or push.KindManage.
	Kind string
	// AgentID names the journey the item is about.
	AgentID string
	// Result is the parsed result document (Kind == push.KindResult).
	Result *wire.ResultDocument
	// Note carries the text payload of status/management items.
	Note string
}

// Session summarises one reconnection round.
type Session struct {
	// Gateway is the member that served this session.
	Gateway string
	// Dispatched lists agent ids created by draining the offline queue.
	Dispatched []string
	// QueuedLeft counts offline dispatches still queued (the drain
	// stopped on a network error).
	QueuedLeft int
	// Deliveries are the mailbox items received, in sequence order.
	Deliveries []Delivery
	// Evicted is the gateway's lifetime count of this device's entries
	// dropped to quota/TTL — a growing number means notifications were
	// lost while the device was away.
	Evicted uint64
}

// --- offline dispatch queue ----------------------------------------------

// QueueDispatch records a §3.2 service execution for later upload: the
// Packed Information (parameters, fresh nonce, derived dispatch key) is
// built now, entirely offline, and stored in the device database. The
// queue drains on the next OpenSession. The returned id names the
// queued item; the nonce inside makes the eventual upload idempotent
// even if a drain is retried across a crash.
func (p *Platform) QueueDispatch(codeID string, params map[string]mavm.Value) (string, error) {
	pi, err := p.buildPI(codeID, params)
	if err != nil {
		return "", err
	}
	doc, err := pi.EncodeXML()
	if err != nil {
		return "", err
	}
	rec := kxml.NewElement("queued-dispatch")
	rec.SetAttr("id", pi.Nonce)
	rec.AddText(string(doc))

	p.mu.Lock()
	defer p.mu.Unlock()
	recID, err := p.putRecord(rec.EncodeDocument())
	if err != nil {
		return "", fmt.Errorf("device: queueing dispatch: %w", err)
	}
	p.queued[pi.Nonce] = &queuedDispatch{recID: recID, pi: pi}
	p.queueIDs = append(p.queueIDs, pi.Nonce)
	p.logf("device %s: queued %q for the next session (%d queued)", p.cfg.Owner, codeID, len(p.queued))
	return pi.Nonce, nil
}

// QueuedDispatches lists queued dispatch ids in drain (FIFO) order.
func (p *Platform) QueuedDispatches() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.queueIDs...)
}

// drainQueued uploads queued dispatches in FIFO order. A transient
// failure (transport error, 5xx) halts the drain — the uplink is
// probably still flaky and the rest stay queued for the next session.
// A permanent rejection (4xx: bad code, rotated subscription, refused
// key) DROPS the entry and reports it, so one poison dispatch can
// never block the queue behind it forever. 429 is the one 4xx that is
// NOT permanent — the gateway is telling this tenant to back off
// (DESIGN.md §12), not that the dispatch is poison — so it halts the
// drain like a 5xx and the queue retries next session.
func (p *Platform) drainQueued(ctx context.Context) (dispatched []string, rejected []Delivery, err error) {
	for {
		p.mu.Lock()
		if len(p.queueIDs) == 0 {
			p.mu.Unlock()
			return dispatched, rejected, nil
		}
		qid := p.queueIDs[0]
		q := p.queued[qid]
		p.mu.Unlock()

		agentID, uerr := p.uploadPI(ctx, q.pi)
		if uerr != nil {
			var se *transport.StatusError
			if errors.As(uerr, &se) && se.Status >= 400 && se.Status < 500 &&
				se.Status != transport.StatusTooManyRequests {
				p.logf("device %s: queued dispatch %s permanently rejected: %v", p.cfg.Owner, qid, uerr)
				rejected = append(rejected, Delivery{
					Kind: push.KindStatus,
					Note: fmt.Sprintf("queued dispatch %s (%s) rejected: %s", qid, q.pi.CodeID, se.Body),
				})
			} else {
				return dispatched, rejected, uerr
			}
		} else {
			dispatched = append(dispatched, agentID)
		}
		p.mu.Lock()
		if err := p.cfg.Store.Delete(q.recID); err != nil && !errors.Is(err, rms.ErrNotFound) {
			p.logf("device %s: dropping queued record %d: %v", p.cfg.Owner, q.recID, err)
		}
		delete(p.queued, qid)
		p.queueIDs = p.queueIDs[1:]
		p.mu.Unlock()
	}
}

// --- mailbox delivery ----------------------------------------------------

// collectedWindow bounds the remembered directly-collected journeys.
// It mirrors the hub's dedup window (which scales to 2× the mailbox
// quota, default 256): a still-pending mailbox copy of a collected
// result must not outlive the device's memory of having collected it.
// ~20 bytes per id, so the worst-case record stays far below the
// paper's 120 KB on-device budget. Deployments raising the gateway
// quota past ~½ this window trade a sliver of duplicate protection
// for the space.
const collectedWindow = 2048

// markCollected remembers that a journey's result was obtained outside
// mailbox delivery, so a mailbox copy arriving later is recognisable
// as a duplicate. Bounded FIFO, persisted in one record.
func (p *Platform) markCollected(agentID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.collected[agentID] {
		return
	}
	p.collected[agentID] = true
	p.collectedOrder = append(p.collectedOrder, agentID)
	for len(p.collectedOrder) > collectedWindow {
		delete(p.collected, p.collectedOrder[0])
		p.collectedOrder = p.collectedOrder[1:]
	}
	rec := kxml.NewElement("collected")
	for _, id := range p.collectedOrder {
		rec.AddElement("a").AddText(id)
	}
	if err := p.setRecord(&p.collectedRec, rec.EncodeDocument()); err != nil {
		p.logf("device %s: persisting collected set: %v", p.cfg.Owner, err)
	}
}

// storeMailboxStateLocked persists the session gateway and the
// per-gateway cursors. Caller holds p.mu.
func (p *Platform) storeMailboxStateLocked() error {
	rec := kxml.NewElement("mbox-state")
	rec.SetAttr("gateway", p.sessionGW)
	gws := make([]string, 0, len(p.cursors))
	for gw := range p.cursors {
		gws = append(gws, gw)
	}
	sort.Strings(gws)
	for _, gw := range gws {
		c := rec.AddElement("cursor")
		c.SetAttr("gw", gw)
		c.SetAttr("seq", strconv.FormatUint(p.cursors[gw], 10))
	}
	tgws := make([]string, 0, len(p.tokens))
	for gw := range p.tokens {
		tgws = append(tgws, gw)
	}
	sort.Strings(tgws)
	for _, gw := range tgws {
		c := rec.AddElement("token")
		c.SetAttr("gw", gw)
		c.SetAttr("v", p.tokens[gw])
	}
	return p.setRecord(&p.mboxRec, rec.EncodeDocument())
}

// SessionGateway returns the gateway whose mailbox holds this device's
// notifications ("" before the first dispatch).
func (p *Platform) SessionGateway() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sessionGW
}

// Cursor returns the device's acknowledged mailbox watermark at gw.
func (p *Platform) Cursor(gw string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cursors[gw]
}

// fetchMailbox runs one fetch+ack round trip against gw: acknowledge
// cursor, receive the next batch. prevEdge (first call after switching
// gateways) asks gw to pull our mailbox from the member we previously
// talked to. wait > 0 long-polls. Every read goes to the one mailbox
// endpoint: the gateway stages the ack and commits it with the
// device's next enqueue or with an answer that goes out empty.
func (p *Platform) fetchMailbox(ctx context.Context, gw, prevEdge string, cursor uint64, wait time.Duration) ([]*push.Entry, uint64, uint64, error) {
	req := &transport.Request{Path: "/pdagent/mailbox/poll"}
	req.SetHeader("device", p.cfg.Owner)
	req.SetHeader("ack", strconv.FormatUint(cursor, 10))
	// The mailbox token proves we are the device this mail belongs to.
	// At a new edge we present the token our previous edge minted; the
	// migration carries it over, so it keeps working.
	p.mu.Lock()
	tok := p.tokens[gw]
	if tok == "" && prevEdge != "" {
		tok = p.tokens[prevEdge]
	}
	p.mu.Unlock()
	if tok != "" {
		req.SetHeader("mailbox-token", tok)
	}
	if prevEdge != "" && prevEdge != gw {
		req.SetHeader("prev-edge", prevEdge)
	}
	if wait > 0 {
		req.SetHeader("wait", wait.String())
	}
	resp, err := p.roundTrip(ctx, gw, req)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.Status == transport.StatusUnauthorized {
		// We hold no valid token for this gateway (e.g. the dispatch
		// response that carried it was lost, and the idempotent retry
		// deliberately does not re-send it). Not fatal: the session's
		// pull-repair collects pending results directly, and the next
		// fresh dispatch re-delivers the token.
		return nil, cursor, 0, errNoMailboxAccess
	}
	if !resp.IsOK() {
		return nil, 0, 0, fmt.Errorf("device: mailbox at %s: %w", gw, resp.Err())
	}
	_, entries, watermark, evicted, _, _, err := push.ParseEntries(resp.Body)
	return entries, watermark, evicted, err
}

// processEntries turns mailbox entries into Deliveries, applying their
// side effects (a delivered result closes the pending journey exactly
// like Collect). Caller then persists the advanced cursor.
func (p *Platform) processEntries(entries []*push.Entry) []Delivery {
	out := make([]Delivery, 0, len(entries))
	for _, e := range entries {
		d := Delivery{Seq: e.Seq, Kind: e.Kind, AgentID: e.AgentID}
		if e.Kind == push.KindResult {
			rd, err := wire.ParseResultDocument(e.Body)
			if err != nil {
				p.logf("device %s: unparseable result in mailbox (agent %s): %v", p.cfg.Owner, e.AgentID, err)
				d.Kind = push.KindStatus
				d.Note = "undeliverable result: " + err.Error()
				out = append(out, d)
				continue
			}
			stillPending := p.forgetPending(rd.AgentID)
			p.mu.Lock()
			alreadyCollected := p.collected[rd.AgentID]
			p.mu.Unlock()
			if !stillPending && alreadyCollected {
				// The result was already obtained through a direct (or
				// repair) Collect: advancing the cursor retires the
				// entry, the application never sees a second copy.
				p.logf("device %s: dropping duplicate result for %s", p.cfg.Owner, rd.AgentID)
				continue
			}
			// A result with no pending record that was never collected
			// (a clone whose clone response was lost, or a pending
			// record lost to a device crash) is still real mail:
			// deliver it. Mark it collected either way — if the cursor
			// ack at this edge is lost (or a migration left a copy at a
			// previous edge), the stray redelivery must read as a
			// duplicate, not fresh mail.
			d.Result = rd
			p.markCollected(rd.AgentID)
		} else {
			d.Note = string(e.Body)
			if e.Kind == push.KindStatus {
				// Status notes mark result-less terminal transitions
				// (disposed by another session, result expired at the
				// gateway): close the journey so future sessions stop
				// burning repair probes — and RMS records — on it.
				p.forgetPending(e.AgentID)
			}
		}
		out = append(out, d)
	}
	return out
}

// forgetPending retires a journey's pending record — its result was
// collected or delivered, or no result is coming — reporting whether
// the journey was pending.
func (p *Platform) forgetPending(agentID string) bool {
	if agentID == "" {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if recID, ok := p.pendIDs[agentID]; ok {
		if err := p.cfg.Store.Delete(recID); err != nil && !errors.Is(err, rms.ErrNotFound) {
			p.logf("device %s: dropping pending record for %s: %v", p.cfg.Owner, agentID, err)
		}
		delete(p.pendIDs, agentID)
	}
	_, pending := p.pending[agentID]
	delete(p.pending, agentID)
	return pending
}

// mailBatch is one mailbox answer as received: the entries, the
// watermark to persist once they are processed, and the gateway's
// eviction count.
type mailBatch struct {
	entries            []*push.Entry
	watermark, evicted uint64
}

// PollMailbox collects mail from gw. A batch the last dispatch's answer
// carried is handed out first. With wait == 0 it then performs fetch+ack
// rounds until the mailbox is drained; the last, empty answer commits
// the acks, so it ends fully acknowledged at the gateway. With wait > 0
// it returns as soon as a batch is processed
// — the carried one without any request, else one long-poll — and that
// batch's ack rides the device's next request (its next upload or poll,
// or the first fetch of its next session) instead of costing a round
// trip of its own. The device-side cursor is persisted after each
// processed batch, so a crash at any point resumes without loss or
// duplication.
func (p *Platform) PollMailbox(ctx context.Context, gw string, wait time.Duration) ([]Delivery, uint64, error) {
	p.mu.Lock()
	prevEdge := p.sessionGW
	cursor := p.cursors[gw]
	held := p.unread[gw]
	delete(p.unread, gw)
	p.mu.Unlock()

	var all []Delivery
	var evicted uint64
	if held != nil && held.watermark > cursor {
		// Entries a poll running beside the dispatch already processed
		// are behind the cursor.
		for len(held.entries) > 0 && held.entries[0].Seq <= cursor {
			held.entries = held.entries[1:]
		}
		all = p.deliverBatch(gw, prevEdge, held.entries, held.watermark)
		cursor, evicted = held.watermark, held.evicted
		if wait > 0 {
			return all, evicted, nil
		}
	}
	for round := 0; ; round++ {
		pe := ""
		if round == 0 {
			pe = prevEdge
		}
		entries, watermark, ev, err := p.fetchMailbox(ctx, gw, pe, cursor, wait)
		if errors.Is(err, errNoMailboxAccess) {
			p.logf("device %s: no mailbox access at %s yet; relying on direct collection", p.cfg.Owner, gw)
			return all, evicted, nil
		}
		if err != nil {
			return all, evicted, err
		}
		evicted = ev
		if len(entries) == 0 && watermark <= cursor {
			break
		}
		all = append(all, p.deliverBatch(gw, prevEdge, entries, watermark)...)
		cursor = watermark
		if len(entries) == 0 || wait > 0 {
			break
		}
		// The next round's fetch carries ack=cursor, retiring this
		// batch at the gateway; when it comes back empty the drain is
		// complete and fully acknowledged. A crash before that ack only
		// costs a redelivery that the cursor filters out.
	}
	return all, evicted, nil
}

// deliverBatch processes one mailbox batch from gw and persists the
// cursor it advances to.
func (p *Platform) deliverBatch(gw, prevEdge string, entries []*push.Entry, watermark uint64) []Delivery {
	out := p.processEntries(entries)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cursors[gw] = watermark
	p.sessionGW = gw
	if p.tokens[gw] == "" && prevEdge != "" && p.tokens[prevEdge] != "" {
		// The poll succeeded with the previous edge's token: this
		// gateway adopted it during the migration, so it is now
		// valid here too.
		p.tokens[gw] = p.tokens[prevEdge]
	}
	if err := p.storeMailboxStateLocked(); err != nil {
		p.logf("device %s: persisting mailbox cursor: %v", p.cfg.Owner, err)
	}
	return out
}

// OpenSession is the reconnection ritual of a disconnection-tolerant
// device: drain the offline dispatch queue, then pull everything the
// gateway mailbox accumulated while we were away. It talks to the
// device's session gateway (the one the last dispatch went through);
// use OpenSessionAt to reconnect through a different member — the
// mailbox follows.
func (p *Platform) OpenSession(ctx context.Context) (*Session, error) {
	return p.OpenSessionAt(ctx, "")
}

// OpenSessionAt opens a session through a specific gateway. If the
// device previously talked to a different member, that member is named
// as prev-edge and the new gateway pulls the mailbox over — the device
// keeps one cursor per gateway, so the switch cannot lose or duplicate
// notifications.
func (p *Platform) OpenSessionAt(ctx context.Context, gw string) (*Session, error) {
	p.mu.Lock()
	if gw == "" {
		gw = p.sessionGW
	}
	if gw == "" && len(p.queueIDs) > 0 {
		// Never dispatched online yet, but the offline queue knows
		// where its subscription came from.
		if entry, ok := p.subs[p.queued[p.queueIDs[0]].pi.CodeID]; ok {
			gw = entry.sub.Gateway
		}
	}
	if gw == "" {
		// Any stored subscription names a gateway (sorted for
		// determinism).
		ids := make([]string, 0, len(p.subs))
		for id := range p.subs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if len(ids) > 0 {
			gw = p.subs[ids[0]].sub.Gateway
		}
	}
	if gw == "" && len(p.gateways) > 0 {
		gw = p.gateways[0]
	}
	p.mu.Unlock()
	if gw == "" {
		return nil, ErrNoSessionGateway
	}

	s := &Session{Gateway: gw}
	dispatched, rejected, drainErr := p.drainQueued(ctx)
	s.Dispatched = dispatched
	s.Deliveries = append(s.Deliveries, rejected...)
	if drainErr != nil {
		p.logf("device %s: offline queue drain stopped: %v", p.cfg.Owner, drainErr)
	}

	deliveries, evicted, err := p.PollMailbox(ctx, gw, 0)
	s.Deliveries = append(s.Deliveries, deliveries...)
	s.Evicted = evicted
	p.mu.Lock()
	s.QueuedLeft = len(p.queueIDs)
	p.mu.Unlock()
	if err != nil {
		return s, err
	}

	// On-demand pull as repair: the mailbox push can be lost to a
	// gateway crash between the agent's arrival and the relay (the
	// journal recovers the journey, but the edge mailbox may never hear
	// of it). Journeys still open after the mailbox drain are probed
	// with a direct §3.3 collection; a later mailbox copy of the same
	// result is dropped as a duplicate by processEntries.
	for _, agentID := range p.Pending() {
		rd, cerr := p.Collect(ctx, agentID)
		if cerr != nil {
			var se *transport.StatusError
			if errors.As(cerr, &se) && se.Status == transport.StatusGone {
				// Terminal without a result (disposed, or the result
				// expired past its retention TTL): close the journey
				// instead of re-probing it every session forever.
				p.forgetPending(agentID)
				s.Deliveries = append(s.Deliveries, Delivery{
					Kind: push.KindStatus, AgentID: agentID, Note: se.Body,
				})
				continue
			}
			if !errors.Is(cerr, ErrNotReady) {
				p.logf("device %s: repair collect for %s: %v", p.cfg.Owner, agentID, cerr)
			}
			continue
		}
		s.Deliveries = append(s.Deliveries, Delivery{
			Kind: push.KindResult, AgentID: agentID, Result: rd,
		})
	}
	if drainErr != nil {
		return s, fmt.Errorf("device: session opened but %d dispatch(es) still queued: %w", s.QueuedLeft, drainErr)
	}
	p.logf("device %s: session at %s: %d dispatched, %d delivered, %d evicted",
		p.cfg.Owner, gw, len(s.Dispatched), len(s.Deliveries), s.Evicted)
	return s, nil
}
