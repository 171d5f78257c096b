package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/mas"
	"pdagent/internal/metrics"
	"pdagent/internal/transport"
)

const (
	// relayReprobe is how long a home that answered /cluster/loc with 404
	// is left alone before one relay is sent again as a probe: a gateway
	// restarted into a federation is relayed to again within this long.
	relayReprobe = 30 * time.Second
	// maxRelayHomes bounds the per-home table. An arriving image names its
	// own home, so the key is chosen by whoever sends the agent; past the
	// bound some entry goes, which costs that home one probe.
	maxRelayHomes = 256
)

// relayHome is what a Relay remembers about one home gateway.
type relayHome struct {
	bareAt  time.Time // when it last answered 404: it keeps no directory (zero: not known to)
	probing bool      // the re-probe is out; other relays keep skipping until it is answered
	refused bool      // a 401/403 from it has been logged
}

// Relay sends a NON-member MAS host's location events to each agent's
// home gateway's /cluster/loc endpoint, stamped with the shared cluster
// secret, so mid-itinerary hops between hosts reach the replicated
// directory. Best-effort by design — a missed or refused relay only
// costs chase hops. It learns from the answers which homes want them: a
// standalone gateway has no /cluster/loc and answers 404, and is then
// skipped until the next re-probe; only a 404 answer does that — not a
// transport error, a 5xx, or the 401/403 of a wrong secret, which is
// logged once per home — and an OK un-learns it.
type Relay struct {
	rt           transport.RoundTripper
	self, secret string
	log          *metrics.Logger
	now          func() time.Time

	mu    sync.Mutex
	homes map[string]*relayHome

	sent, skipped, refused, failed atomic.Uint64
}

// NewRelay builds the relay of the host at selfAddr.
func NewRelay(rt transport.RoundTripper, selfAddr, secret string) *Relay {
	return &Relay{
		rt: rt, self: selfAddr, secret: secret,
		log: metrics.NewLogger("loc-relay", nil), now: time.Now,
		homes: map[string]*relayHome{},
	}
}

// LocationRelay builds a mas.Config.OnAgentMove hook that relays every
// location event synchronously (core.SimWorld; cmd/masd queues in front
// of Relay.Send). Cluster members themselves publish through
// Node.PublishLocation instead.
func LocationRelay(rt transport.RoundTripper, selfAddr, secret string) func(context.Context, mas.AgentMove) {
	return NewRelay(rt, selfAddr, secret).Send
}

// RegisterMetrics exposes what became of each location event.
func (r *Relay) RegisterMetrics(m *metrics.Registry) {
	m.CounterVecFunc("pdagent_loc_relay_total",
		"Location relays by outcome: sent (the home took it), skipped (the home keeps no directory: it answered this one 404, or answered 404 within the re-probe interval and this one was not sent), refused (401/403: check -cluster-secret), failed (transport error or any other answer).",
		"outcome", func() map[string]float64 {
			return map[string]float64{
				"sent": float64(r.sent.Load()), "skipped": float64(r.skipped.Load()),
				"refused": float64(r.refused.Load()), "failed": float64(r.failed.Load()),
			}
		})
}

// home returns the table entry for addr, making room for a new one by
// dropping an arbitrary other (and its logged-once latch). Called with
// mu held.
func (r *Relay) home(addr string) *relayHome {
	h, ok := r.homes[addr]
	if !ok {
		if len(r.homes) >= maxRelayHomes {
			for victim := range r.homes {
				r.forget(victim)
				break
			}
		}
		h = &relayHome{}
		r.homes[addr] = h
	}
	return h
}

// forget drops addr's entry; the next refusal from it is logged again.
// Called with mu held.
func (r *Relay) forget(addr string) {
	if h, ok := r.homes[addr]; ok && h.refused {
		r.log.ResetOnce("refused:" + addr)
	}
	delete(r.homes, addr)
}

// Send relays one location event, or skips it. It is the OnAgentMove
// hook LocationRelay returns.
func (r *Relay) Send(ctx context.Context, mv mas.AgentMove) {
	if mv.Home == "" || mv.Home == r.self {
		return
	}
	r.mu.Lock()
	probe := false
	if h, ok := r.homes[mv.Home]; ok && !h.bareAt.IsZero() {
		if h.probing || r.now().Sub(h.bareAt) < relayReprobe {
			r.mu.Unlock()
			r.skipped.Add(1)
			return
		}
		h.probing, probe = true, true
	}
	r.mu.Unlock()

	req := &transport.Request{
		Path: "/cluster/loc",
		Body: EncodeUpdate(Location{
			AgentID: mv.AgentID, Addr: mv.Addr, HomeGW: mv.Home,
			Seq: mv.Seq, Terminal: mv.Terminal,
		}),
	}
	req.SetHeader(tokenHeader, r.secret)
	pushCtx, cancel := context.WithTimeout(ctx, locationPushTimeout)
	resp, err := r.rt.RoundTrip(pushCtx, mv.Home, req)
	cancel()

	r.mu.Lock()
	if h, ok := r.homes[mv.Home]; ok && probe {
		// Whatever the answer, the probe is back; only another 404 renews
		// the mark, so a probe that failed is followed by the next event.
		h.probing = false
	}
	outcome := &r.failed // a transport error, or an answer that is none of the below
	switch {
	case err != nil:
	case resp.IsOK():
		outcome = &r.sent
		r.forget(mv.Home)
	case resp.Status == transport.StatusNotFound:
		outcome = &r.skipped
		r.home(mv.Home).bareAt = r.now()
	case resp.Status == transport.StatusUnauthorized || resp.Status == transport.StatusForbidden:
		outcome = &r.refused
		r.home(mv.Home).refused = true
	}
	r.mu.Unlock()
	outcome.Add(1)
	if outcome == &r.refused {
		r.log.Oncef("refused:"+mv.Home, "%s: home gateway %s refuses location relays (%d %s): its -cluster-secret is not this host's; agents homed there are found by chasing only",
			r.self, mv.Home, resp.Status, resp.Text())
	}
}
