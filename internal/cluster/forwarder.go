package cluster

import (
	"context"
	"fmt"
	"strings"

	"pdagent/internal/transport"
)

// fwdHeader carries the comma-separated chain of members a request has
// already visited; Forward refuses to send a request back into its own
// chain, so mis-routed traffic can never cycle between members with
// disagreeing views.
const fwdHeader = "x-cluster-fwd"

// maxForwardHops bounds a forwarding chain even across disjoint views.
const maxForwardHops = 4

// ErrForwardLoop is returned when a forward would revisit a member
// already in the request's chain (or the chain is too long).
var ErrForwardLoop = fmt.Errorf("cluster: forwarding loop")

// Chain returns the members a request has already visited.
func Chain(req *transport.Request) []string {
	h := req.GetHeader(fwdHeader)
	if h == "" {
		return nil
	}
	return strings.Split(h, ",")
}

// Forwarded reports whether req already crossed at least one member —
// gateway endpoints use it to trust intra-cluster requests and to
// refuse re-forwarding.
func Forwarded(req *transport.Request) bool { return req.GetHeader(fwdHeader) != "" }

// Forward sends a copy of req to addr with this member appended to the
// hop chain and this member's identity stamped on it. It refuses loops
// (addr already in the chain, or chain at the hop bound) with
// ErrForwardLoop rather than putting the request back on the wire.
func (n *Node) Forward(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	chain := Chain(req)
	if len(chain) >= maxForwardHops {
		return nil, fmt.Errorf("%w: chain %v at bound %d", ErrForwardLoop, chain, maxForwardHops)
	}
	for _, h := range chain {
		if h == addr || h == n.cfg.Self {
			return nil, fmt.Errorf("%w: %s already in chain %v", ErrForwardLoop, addr, chain)
		}
	}
	fwd := &transport.Request{Path: req.Path, Body: req.Body}
	for k, v := range req.Header {
		fwd.SetHeader(k, v)
	}
	fwd.SetHeader(fwdHeader, strings.Join(append(chain, n.cfg.Self), ","))
	n.Stamp(fwd)
	return n.cfg.Transport.RoundTrip(ctx, addr, fwd)
}
