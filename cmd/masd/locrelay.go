package main

import (
	"context"

	"pdagent/internal/mas"
	"pdagent/internal/metrics"
)

// locRelayQueue bounds the location relays waiting for the sender. A
// relay is ~100 bytes and the sender clears one per round trip to its
// home gateway, so the bound only bites while a home is unreachable
// (each relay then waits out its push timeout); 1024 rides out a few
// seconds of that at full transfer rate before the oldest — the ones a
// later relay for the same agent supersedes anyway — start to go.
const locRelayQueue = 1024

// locRelay takes location relays off the transfer path. The MAS calls
// its OnAgentMove hook synchronously — on an arrival, before the agent
// starts and before the sender gets its OK — and a relay is a full
// round trip to the agent's home gateway. The hook only queues; one
// background sender delivers in arrival order, which is all the
// directory needs (merges are ordered by Seq, and the relay is
// best-effort: a missed one costs chase hops). When the queue is full
// the oldest relay is dropped and counted.
type locRelay struct {
	send    func(context.Context, mas.AgentMove)
	queue   chan mas.AgentMove
	dropped *metrics.Counter
	done    chan struct{} // closed when run returns
}

func newLocRelay(send func(context.Context, mas.AgentMove), reg *metrics.Registry) *locRelay {
	return &locRelay{
		send:  send,
		queue: make(chan mas.AgentMove, locRelayQueue),
		done:  make(chan struct{}),
		dropped: reg.Counter("pdagent_loc_relay_dropped_total",
			"Location relays dropped (oldest first) because the background sender's queue was full."),
	}
}

// post is the mas.Config.OnAgentMove hook. It never blocks: the
// caller's context is the transfer request's, and no relay outlives it.
func (r *locRelay) post(_ context.Context, mv mas.AgentMove) {
	for {
		select {
		case r.queue <- mv:
			return
		default:
		}
		select {
		case <-r.queue:
			r.dropped.Inc()
		default: // the sender got there first
		}
	}
}

// run sends queued relays in order until ctx ends; what is still queued
// then is abandoned, like any relay that fails.
func (r *locRelay) run(ctx context.Context) {
	defer close(r.done)
	for {
		select {
		case <-ctx.Done():
			return
		case mv := <-r.queue:
			r.send(ctx, mv)
		}
	}
}
