package cluster

import (
	"crypto/subtle"
	"strconv"

	"pdagent/internal/transport"
)

// tokenHeader carries the shared cluster secret. The /cluster/
// endpoints sit on the same listener as device traffic and the HTTP
// adapter copies client headers verbatim, so the hop chain alone must
// never be treated as proof that a request came from a peer — only
// the token is.
const tokenHeader = "x-cluster-token"

// originHeader names the member a request claims to come from, and
// epochHeader the fencing epoch that instance of the member holds.
// Neither is proof of identity on its own (headers are
// client-settable) — they are meaningful only AFTER the token check,
// as the fencing discriminator between a live member and a fenced
// zombie of the same address (DESIGN.md §10).
const (
	originHeader = "x-cluster-origin"
	epochHeader  = "x-cluster-epoch"
	// fencedEpochHeader rides a refused heartbeat's reply to tell a
	// zombie the epoch it was fenced at.
	fencedEpochHeader = "x-cluster-fenced-epoch"
)

// stampReply adds the answering member's origin and epoch to a
// heartbeat's OK reply, so the sender can refuse a fenced zombie's
// answer as the zombie's endpoints refuse its requests.
func stampReply(resp *transport.Response, self string, epoch uint64) {
	resp.SetHeader(originHeader, self)
	resp.SetHeader(epochHeader, strconv.FormatUint(epoch, 10))
}

// stamp adds a cluster identity — token, origin, epoch — to an
// outgoing request. Every intra-cluster sender goes through it:
// heartbeats and leaves, forwarded requests, location pushes, masd
// location relays and replication streams.
func stamp(req *transport.Request, self, secret string, epoch uint64) {
	req.SetHeader(tokenHeader, secret)
	req.SetHeader(originHeader, self)
	req.SetHeader(epochHeader, strconv.FormatUint(epoch, 10))
}

// vet is the one check every intra-cluster request passes: a
// constant-time compare of the shared secret, then the fence of the
// origin the request names against the epoch it claims. A request
// refused by a fence comes back with that fence (0 otherwise), so the
// heartbeat handler can tell the zombie its own death.
func vet(req *transport.Request, secret string, fenceOf func(string) uint64) (ok bool, fence uint64) {
	if subtle.ConstantTimeCompare([]byte(req.GetHeader(tokenHeader)), []byte(secret)) != 1 {
		return false, 0
	}
	if origin := req.GetHeader(originHeader); origin != "" {
		if f := fenceOf(origin); f > parseEpoch(req.GetHeader(epochHeader)) {
			return false, f
		}
	}
	return true, 0
}

// parseEpoch reads the fencing epoch a request or a heartbeat reply
// claims in its epoch header (0 if absent).
func parseEpoch(header string) uint64 {
	e, err := strconv.ParseUint(header, 10, 64)
	if err != nil {
		return 0
	}
	return e
}

// origin returns the member address a request claims to come from (""
// if unstamped). It is client-settable, so it is meaningful only AFTER
// vet accepted the request.
func origin(req *transport.Request) string { return req.GetHeader(originHeader) }
