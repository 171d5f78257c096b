package device

import (
	"context"
	"fmt"
	"strconv"

	"pdagent/internal/compress"
	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Dispatch performs §3.2 service execution: it builds the Packed
// Information from the stored code package and the user's parameters
// (collected offline), derives the dispatch key, packs (compress +
// seal) and uploads it to the subscription's gateway. It returns the
// agent id assigned by the gateway. This is the only online step of a
// service invocation besides result collection.
func (p *Platform) Dispatch(ctx context.Context, codeID string, params map[string]mavm.Value) (string, error) {
	pi, err := p.buildPI(ctx, codeID, params)
	if err != nil {
		return "", err
	}
	return p.uploadPI(ctx, pi)
}

// buildPI assembles the Packed Information for a service execution:
// the subscribed code by reference (its hash; the gateway that served
// the subscription holds the code), parameters, a fresh nonce and the
// derived dispatch key. The offline part of §3.2 — no network
// involved, so it also backs the offline dispatch queue.
func (p *Platform) buildPI(ctx context.Context, codeID string, params map[string]mavm.Value) (*wire.PackedInformation, error) {
	p.mu.Lock()
	entry, ok := p.subs[codeID]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotSubscribed, codeID)
	}
	nonce, err := wire.NewNonce(ctx)
	if err != nil {
		return nil, err
	}
	return &wire.PackedInformation{
		CodeID:      codeID,
		DispatchKey: pisec.DispatchKey(codeID, entry.sub.Secret),
		Owner:       p.cfg.Owner,
		Nonce:       nonce,
		CodeHash:    entry.hash,
		Params:      params,
	}, nil
}

// uploadPI performs the online part of a dispatch: pack (compress +
// seal), upload, record the pending journey and remember the gateway as
// this device's session home (its mailbox collects our notifications).
// The PI's nonce makes a retried upload idempotent at the gateway. Mail
// the answer carries is kept unprocessed for PollMailbox.
func (p *Platform) uploadPI(ctx context.Context, pi *wire.PackedInformation) (string, error) {
	p.mu.Lock()
	entry, ok := p.subs[pi.CodeID]
	codec := p.cfg.Codec
	if ok && p.flateDict[entry.sub.Gateway] {
		// The gateway reads codec 3: it last answered in it.
		codec = compress.FlateDict
	}
	p.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotSubscribed, pi.CodeID)
	}
	var key *pisec.PublicKey
	if p.cfg.Secure {
		if entry.key == nil {
			return "", fmt.Errorf("device: subscription %q has no gateway key for sealing", pi.CodeID)
		}
		key = entry.key
	}
	// One right-sized allocation per upload. The body is not recycled
	// after the round trip: a RoundTripper may keep req.Body (the
	// benchmark's traced pass does).
	body, err := wire.AppendPack(make([]byte, 0, p.packCap.Load()), pi, codec, key)
	if err != nil {
		return "", err
	}
	p.packCap.Store(int64(len(body)))
	gw := entry.sub.Gateway
	req := &transport.Request{Path: "/pdagent/dispatch", Body: body}
	// Ask for the waiting mail in the answer (DESIGN.md §7): the token,
	// the cursor and accept mean on an upload what they mean on a poll.
	// Not while a batch is unread — the cursor has not moved past it, so
	// the answer would carry the same entries again.
	p.mu.Lock()
	asked := p.tokens[gw] != "" && p.unread[gw] == nil
	if asked {
		req.SetHeader("mailbox-token", p.tokens[gw])
		req.SetHeader("ack", strconv.FormatUint(p.cursors[gw], 10))
		req.SetHeader("accept", acceptFlateDict)
	}
	p.mu.Unlock()
	resp, err := p.roundTrip(ctx, gw, req)
	if err != nil {
		return "", err
	}
	if resp.Status == transport.StatusPreconditionFailed {
		// The gateway does not hold the code the hash names (DESIGN.md
		// §7) or the session the envelope names (§pisec): send it all —
		// the same upload, same nonce, once more with the code and the
		// current session's wrapped key, asked for this body alone.
		full := *pi
		if full.Source == "" {
			full.Source, full.CodeHash = entry.sub.Package.Source, ""
		}
		if body, err = wire.AppendPackWrapped(nil, &full, codec, key); err != nil {
			return "", err
		}
		req = &transport.Request{Path: req.Path, Header: req.Header, Body: body}
		if resp, err = p.roundTrip(ctx, gw, req); err != nil {
			return "", err
		}
	}
	if !resp.IsOK() {
		return "", fmt.Errorf("device: dispatching %q: %w", pi.CodeID, resp.Err())
	}
	if key != nil {
		// The gateway opened this envelope: once that is one carrying the
		// wrapped key, later uploads name the session by its id.
		key.Accepted(req.Body)
	}
	// A gateway that attached mail names the agent in the header and
	// fills the body with the mailbox document; any other answer has the
	// id in both places.
	agentID := resp.GetHeader("agent")
	var mail *mailBatch
	if agentID == "" {
		agentID = resp.Text()
	} else if asked && string(resp.Body) != agentID {
		p.learnCodec(gw, resp.Body)
		_, entries, watermark, evicted, _, _, err := push.ParseEntries(resp.Body)
		if err != nil {
			// The dispatch stands; the mail is still in the mailbox.
			p.logf("device %s: mail attached to the dispatch answer: %v", p.cfg.Owner, err)
		} else {
			mail = &mailBatch{entries: entries, watermark: watermark, evicted: evicted}
		}
	}
	if agentID == "" {
		return "", fmt.Errorf("device: gateway returned empty agent id")
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if mail != nil {
		p.unread[gw] = mail
	}
	if _, exists := p.pending[agentID]; !exists {
		// A retried upload (lost response, crash before this record)
		// answers idempotently with the same agent id — don't write a
		// second pending record for it.
		rec := kxml.NewElement("pending")
		rec.SetAttr("agent", agentID)
		rec.SetAttr("gateway", gw)
		rec.SetAttr("code-id", pi.CodeID)
		recID, err := p.putRecord(rec.EncodeDocument())
		if err != nil {
			return "", fmt.Errorf("device: recording dispatch: %w", err)
		}
		p.pending[agentID] = pendingInfo{Gateway: gw, CodeID: pi.CodeID}
		p.pendIDs[agentID] = recID
	}
	tok := resp.GetHeader("mailbox-token")
	if p.sessionGW != gw || (tok != "" && p.tokens[gw] != tok) {
		p.sessionGW = gw
		if tok != "" {
			p.tokens[gw] = tok
		}
		if err := p.storeMailboxStateLocked(); err != nil {
			p.logf("device %s: persisting session gateway: %v", p.cfg.Owner, err)
		}
	}
	p.logf("device %s: dispatched %q as agent %s via %s", p.cfg.Owner, pi.CodeID, agentID, gw)
	return agentID, nil
}

// Pending lists agent ids dispatched but not yet collected.
func (p *Platform) Pending() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.pending))
	for id := range p.pending {
		out = append(out, id)
	}
	return out
}

func (p *Platform) pendingGateway(agentID string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	info, ok := p.pending[agentID]
	if !ok {
		if p.collected[agentID] {
			return "", fmt.Errorf("%w: agent %s", ErrDelivered, agentID)
		}
		return "", fmt.Errorf("device: unknown agent %q", agentID)
	}
	return info.Gateway, nil
}

// Collect performs §3.3 result collection: it downloads the XML result
// document from the gateway. ErrNotReady is returned while the agent
// is still travelling, ErrDelivered once its result was delivered; on
// success the pending record is removed.
func (p *Platform) Collect(ctx context.Context, agentID string) (*wire.ResultDocument, error) {
	gw, err := p.pendingGateway(agentID)
	if err != nil {
		return nil, err
	}
	req := &transport.Request{Path: "/pdagent/result"}
	req.SetHeader("agent", agentID)
	resp, err := p.roundTrip(ctx, gw, req)
	if err != nil {
		return nil, err
	}
	if resp.Status == transport.StatusConflict {
		return nil, fmt.Errorf("%w: agent %s", ErrNotReady, agentID)
	}
	if !resp.IsOK() {
		return nil, fmt.Errorf("device: collecting %s: %w", agentID, resp.Err())
	}
	rd, err := wire.ParseResultDocument(resp.Body)
	if err != nil {
		return nil, err
	}
	p.forgetPending(agentID)
	// Remember the direct collection so a mailbox copy of this result
	// (enqueued before the gateway saw the collect) is recognisable as
	// a duplicate by the next session.
	p.markCollected(agentID)
	return rd, nil
}

// AgentStatus asks the gateway where the agent is and how it is doing
// (§3.6 "view agent status"). The first return is "complete",
// "travelling" or "disposed" (terminal, no result coming); the second
// carries the MAS status document when travelling.
func (p *Platform) AgentStatus(ctx context.Context, agentID string) (string, []byte, error) {
	gw, err := p.pendingGateway(agentID)
	if err != nil {
		return "", nil, err
	}
	req := &transport.Request{Path: "/pdagent/status"}
	req.SetHeader("agent", agentID)
	resp, err := p.roundTrip(ctx, gw, req)
	if err != nil {
		return "", nil, err
	}
	if !resp.IsOK() {
		return "", nil, resp.Err()
	}
	return resp.GetHeader("agent-state"), resp.Body, nil
}

// manage invokes a §3.6 management verb through the gateway.
func (p *Platform) manage(ctx context.Context, agentID, verb string) (*transport.Response, error) {
	gw, err := p.pendingGateway(agentID)
	if err != nil {
		return nil, err
	}
	req := &transport.Request{Path: "/pdagent/manage/" + verb}
	req.SetHeader("agent", agentID)
	resp, err := p.roundTrip(ctx, gw, req)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Retract asks the platform to pull the agent back to its gateway; the
// partial results become collectable once it arrives (status
// "retracted").
func (p *Platform) Retract(ctx context.Context, agentID string) error {
	resp, err := p.manage(ctx, agentID, "retract")
	if err != nil {
		return err
	}
	if !resp.IsOK() {
		return fmt.Errorf("device: retracting %s: %w", agentID, resp.Err())
	}
	return nil
}

// Dispose terminates the agent wherever it is; no result will arrive.
func (p *Platform) Dispose(ctx context.Context, agentID string) error {
	resp, err := p.manage(ctx, agentID, "dispose")
	if err != nil {
		return err
	}
	if !resp.IsOK() {
		return fmt.Errorf("device: disposing %s: %w", agentID, resp.Err())
	}
	// The journey will never produce a result; forget it locally.
	p.forgetPending(agentID)
	return nil
}

// Clone duplicates a travelling agent and returns the clone's id; the
// clone's results are collectable like any dispatch.
func (p *Platform) Clone(ctx context.Context, agentID string) (string, error) {
	resp, err := p.manage(ctx, agentID, "clone")
	if err != nil {
		return "", err
	}
	if !resp.IsOK() {
		return "", fmt.Errorf("device: cloning %s: %w", agentID, resp.Err())
	}
	cloneID := resp.Text()
	gw, err := p.pendingGateway(agentID)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := kxml.NewElement("pending")
	rec.SetAttr("agent", cloneID)
	rec.SetAttr("gateway", gw)
	rec.SetAttr("code-id", p.pending[agentID].CodeID)
	recID, err := p.putRecord(rec.EncodeDocument())
	if err != nil {
		return "", err
	}
	p.pending[cloneID] = pendingInfo{Gateway: gw, CodeID: p.pending[agentID].CodeID}
	p.pendIDs[cloneID] = recID
	return cloneID, nil
}
