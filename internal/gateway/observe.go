package gateway

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"pdagent/internal/metrics"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// This file is the gateway's observability surface (DESIGN.md §11):
// the /metrics endpoint and per-journey itinerary tracing.

// opTransferOut must match the op the MAS records when it ships an
// agent (mas.shipAgent): trace reconstruction follows these spans'
// Detail addresses to reach hosts that are not cluster members.
const opTransferOut = "transfer-out"

// traceChaseLimit bounds how many non-member hosts one trace
// reconstruction will chase along transfer-out hops.
const traceChaseLimit = 16

// hubStatsCache amortises push.Hub.Stats — which walks the dirty
// mailbox set — across the dozen gauges that read it, so one scrape
// performs one walk instead of one per gauge.
type hubStatsCache struct {
	hub *push.Hub
	mu  sync.Mutex
	at  time.Time
	st  push.Stats
}

func (c *hubStatsCache) stats() push.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.at) > 100*time.Millisecond {
		c.st = c.hub.Stats()
		c.at = now
	}
	return c.st
}

// initObserve wires the gateway's metrics registry, trace ring and
// leveled logger, and registers every gauge the scrape exposes. Called
// from New after the registry, pool and hub exist. Counter and histogram
// handles are stored on the Gateway so hot paths touch only atomics;
// gauges are functions evaluated lazily at scrape time, costing
// nothing between scrapes.
func (g *Gateway) initObserve() {
	if g.metrics == nil {
		g.metrics = metrics.NewRegistry()
	}
	if g.trace == nil {
		g.trace = metrics.NewTraceRing(g.cfg.Addr, 0)
	}
	g.log = metrics.NewLogger("gateway", g.cfg.Logf)

	m := g.metrics
	g.mDispatchUs = m.Histogram("pdagent_dispatch_us",
		"Device dispatch handler latency, microseconds.")
	g.mDispatched = m.Counter("pdagent_dispatch_total",
		"Device dispatches handled (admitted, forwarded, replayed or refused).")
	g.mDispatchErr = m.Counter("pdagent_dispatch_errors_total",
		"Device dispatches answered with a non-OK status (shed included).")
	g.mShed = m.Counter("pdagent_dispatch_shed_total",
		"Device dispatches shed by the in-flight watermark (503).")
	g.mForwarded = m.Counter("pdagent_dispatch_forwarded_total",
		"Dispatches forwarded to their consistent-hash home member.")
	g.mResults = m.Counter("pdagent_results_total",
		"Agents arriving home with a result document (done, failed or retracted).")
	g.mRelayed = m.Counter("pdagent_results_relayed_total",
		"Result documents relayed to the edge member of a forwarded dispatch.")
	g.mAdopted = m.Counter("pdagent_results_adopted_total",
		"Relayed or fetched result documents adopted at this edge.")
	g.mMailboxUs = m.Histogram("pdagent_mailbox_cycle_us",
		"Mailbox fetch/ack or long-poll cycle latency, microseconds.")

	// The unseal stage counts itself: pisec keeps the atomics (nothing
	// is threaded through wire.Unpack), the scrape reads them.
	kp := g.cfg.KeyPair
	m.CounterVecFunc("pdagent_unseal_total",
		"Sealed envelopes past the MD5 check, by path: full ran the RSA private-key operation, resumed found the session key in the table, unknown named a session the table does not hold (answered 412).",
		"path", func() map[string]float64 {
			full, resumed, unknown, _ := kp.UnsealStats()
			return map[string]float64{"full": float64(full), "resumed": float64(resumed), "unknown": float64(unknown)}
		})
	m.GaugeFunc("pdagent_unseal_sessions",
		"Session keys held in the unseal table (bounded; an evicted session's next upload is a 412 and its re-send a full unseal).",
		func() float64 { _, _, _, n := kp.UnsealStats(); return float64(n) })

	m.GaugeFunc("pdagent_inflight",
		"Agents dispatched but not yet completed (registry in-flight count).",
		func() float64 { return float64(g.reg.InFlight()) })
	m.GaugeFunc("pdagent_outbound_queue_depth",
		"Outbound worker pool jobs queued and not yet picked up.",
		func() float64 { return float64(g.pool.QueueDepth()) })
	m.GaugeFunc("pdagent_outbound_busy",
		"Outbound worker pool workers currently executing a job.",
		func() float64 { return float64(g.pool.Busy()) })
	m.GaugeFunc("pdagent_outbound_workers",
		"Outbound worker pool size.",
		func() float64 { return float64(g.pool.size) })
	m.GaugeFunc("pdagent_results_swept",
		"Result documents reclaimed by the retention sweep since start.",
		func() float64 { return float64(g.resultsSwept.Load()) })
	m.GaugeFunc("pdagent_trace_spans",
		"Spans recorded into the trace ring since start.",
		func() float64 { return float64(g.trace.Total()) })
	m.GaugeFunc("pdagent_trace_dropped",
		"Spans overwritten in the trace ring (ring capacity exceeded).",
		func() float64 { return float64(g.trace.Dropped()) })

	if g.hub != nil {
		c := &hubStatsCache{hub: g.hub}
		m.GaugeFunc("pdagent_mailbox_devices",
			"Devices with a mailbox.",
			func() float64 { return float64(c.stats().Devices) })
		m.GaugeFunc("pdagent_mailbox_connected",
			"Devices with an active session (e.g. a parked long-poll).",
			func() float64 { return float64(c.stats().Connected) })
		m.GaugeFunc("pdagent_mailbox_pending",
			"Undelivered mailbox entries across all devices.",
			func() float64 { return float64(c.stats().Pending) })
		m.GaugeFunc("pdagent_mailbox_dirty_devices",
			"Mailboxes holding pending entries, dedup memory or staged acks (sweep working set).",
			func() float64 { return float64(c.stats().DirtyDevices) })
		m.GaugeFunc("pdagent_mailbox_enqueued",
			"Mailbox entries accepted since start (duplicates excluded).",
			func() float64 { return float64(c.stats().Enqueued) })
		m.GaugeFunc("pdagent_mailbox_delivered",
			"Mailbox entries acknowledged by devices since start.",
			func() float64 { return float64(c.stats().Delivered) })
		m.GaugeFunc("pdagent_mailbox_duplicates",
			"Mailbox enqueues suppressed by the event-id dedup window.",
			func() float64 { return float64(c.stats().Duplicates) })
		m.GaugeFunc("pdagent_mailbox_evicted_quota",
			"Mailbox entries dropped by per-device quota before delivery.",
			func() float64 { return float64(c.stats().EvictedQuota) })
		m.GaugeFunc("pdagent_mailbox_evicted_ttl",
			"Mailbox entries expired by TTL before delivery.",
			func() float64 { return float64(c.stats().EvictedTTL) })
		m.CounterVecFunc("pdagent_mailbox_acks_total",
			"Mailbox acknowledgements committed, by how: folded rode the device's next enqueue (one fsync for both), flushed paid a commit of its own (an empty mailbox answer, the sweeper or shutdown).",
			"commit", func() map[string]float64 {
				st := c.stats()
				return map[string]float64{"folded": float64(st.AcksFolded), "flushed": float64(st.AcksFlushed)}
			})
		m.CounterVecFunc("pdagent_mailbox_delivered_total",
			"Mailbox entries handed to devices, by the answer that carried them: dispatch cost the device no request of its own, poll is a read that asked to wait, fetch one that did not (a session's drain).",
			"via", func() map[string]float64 {
				return map[string]float64{
					"dispatch": float64(g.mailDispatch.Load()),
					"poll":     float64(g.mailPoll.Load()),
					"fetch":    float64(g.mailFetch.Load()),
				}
			})
		m.GaugeFunc("pdagent_mailbox_staged_acks",
			"Acknowledgements (a mailbox read's, an upload's) in force in memory and waiting for their mailbox's next commit.",
			func() float64 { return float64(c.stats().StagedAcks) })
		m.GaugeFunc("pdagent_mailbox_dedup_ids",
			"Event ids currently held in mailbox dedup windows.",
			func() float64 { return float64(c.stats().DedupIDs) })
		m.GaugeFunc("pdagent_mailbox_dedup_window",
			"Per-mailbox dedup window capacity.",
			func() float64 { return float64(c.stats().DedupWindow) })
		m.GaugeFunc("pdagent_mailbox_pull_started",
			"Migration pulls sent to a previous edge member.",
			func() float64 { s, _ := g.MailboxPullStats(); return float64(s) })
		m.GaugeFunc("pdagent_mailbox_pull_shared",
			"Mailbox polls coalesced onto another in-flight migration pull.",
			func() float64 { _, s := g.MailboxPullStats(); return float64(s) })
	}

	if w := rms.WALOf(g.cfg.Journal); w != nil {
		w.RegisterMetrics(m, "pdagent_wal", "agent journal")
	}
	if w := rms.WALOf(g.mailboxStore); w != nil && g.mailboxStore != g.cfg.Journal {
		w.RegisterMetrics(m, "pdagent_mailbox_wal", "mailbox store")
	}

	if p := g.cfg.Repl; p != nil {
		m.GaugeFunc("pdagent_repl_streams",
			"Stores replicated to the warm standby.",
			func() float64 { return float64(p.Stats().Streams) })
		m.GaugeFunc("pdagent_repl_degraded",
			"Replication streams latched degraded (standby unreachable).",
			func() float64 { return float64(p.Stats().Degraded) })
		m.GaugeFunc("pdagent_repl_pending_ops",
			"Buffered-but-unreplicated ops across streams (replication lag).",
			func() float64 { return float64(p.Stats().PendingOps) })
		m.GaugeFunc("pdagent_repl_async",
			"1 when the replication ack discipline is async, else 0.",
			func() float64 {
				if p.Stats().Mode == "async" {
					return 1
				}
				return 0
			})
	}

	// The gauge closures read g.mas lazily at scrape time; the MAS is
	// built right after initObserve returns, long before the first
	// scrape.
	g.initTenantObserve(m)

	if node := g.cfg.Cluster; node != nil {
		m.GaugeFunc("pdagent_cluster_view_version",
			"Membership view version (increments on every churn event).",
			func() float64 { return float64(node.Membership().Version()) })
		m.GaugeFunc("pdagent_cluster_alive",
			"Cluster members currently considered alive (self included).",
			func() float64 { return float64(len(node.Membership().AliveAddrs())) })
		m.GaugeFunc("pdagent_cluster_epoch",
			"This member's fencing epoch.",
			func() float64 { return float64(node.Epoch()) })
		m.GaugeFunc("pdagent_cluster_fenced",
			"1 while this member is fenced off by a promoted standby.",
			func() float64 {
				if node.Fenced() {
					return 1
				}
				return 0
			})
	}
}

// --- itinerary tracing ---------------------------------------------------

// wireSpans converts ring spans to their wire form.
func wireSpans(spans []metrics.Span) []wire.TraceSpan {
	out := make([]wire.TraceSpan, len(spans))
	for i, s := range spans {
		out[i] = wire.TraceSpan{Member: s.Member, Op: s.Op, Detail: s.Detail, At: s.At, Seq: s.Seq}
	}
	return out
}

func sortSpans(spans []wire.TraceSpan) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		return a.Seq < b.Seq
	})
}

// handleTrace serves /pdagent/trace/{id}: the journey's itinerary
// reconstructed hop by hop. The id is the agent id minted at dispatch
// — it already rides every wire document on the path, so no new
// identifier was threaded anywhere. Reconstruction merges this
// member's span ring with every alive cluster member's
// (/cluster/trace, authenticated), then chases transfer-out hops to
// MAS hosts, which are not cluster members and therefore only
// discoverable from the itinerary itself. A "scope: local" header
// answers from the local ring only — that is how peers are queried,
// which keeps reconstruction non-recursive.
func (g *Gateway) handleTrace(ctx context.Context, req *transport.Request) *transport.Response {
	id := strings.TrimPrefix(req.Path, "/pdagent/trace/")
	if id == "" || strings.Contains(id, "/") {
		return transport.Errorf(transport.StatusBadRequest, "trace id required: /pdagent/trace/{agent-id}")
	}
	spans := wireSpans(g.trace.Spans(id))
	if req.GetHeader("scope") == "local" {
		return traceResponse(id, spans)
	}
	queried := map[string]bool{g.cfg.Addr: true}
	if node := g.cfg.Cluster; node != nil {
		for _, member := range node.Membership().AliveAddrs() {
			if queried[member] {
				continue
			}
			queried[member] = true
			creq := &transport.Request{Path: "/cluster/trace"}
			creq.SetHeader("trace", id)
			resp, err := node.Forwarder().Forward(ctx, member, creq)
			if err != nil || !resp.IsOK() {
				continue
			}
			if td, err := wire.ParseTrace(resp.Body); err == nil {
				spans = append(spans, td.Spans...)
			}
		}
	}
	for hop := 0; hop < traceChaseLimit; hop++ {
		next := ""
		for i := range spans {
			if spans[i].Op == opTransferOut && spans[i].Detail != "" && !queried[spans[i].Detail] {
				next = spans[i].Detail
				break
			}
		}
		if next == "" {
			break
		}
		queried[next] = true
		hreq := &transport.Request{Path: "/pdagent/trace/" + id}
		hreq.SetHeader("scope", "local")
		resp, err := g.cfg.Transport.RoundTrip(ctx, next, hreq)
		if err != nil || !resp.IsOK() {
			continue
		}
		if td, err := wire.ParseTrace(resp.Body); err == nil {
			spans = append(spans, td.Spans...)
		}
	}
	if len(spans) == 0 {
		return transport.Errorf(transport.StatusNotFound, "no spans recorded for trace %q", id)
	}
	sortSpans(spans)
	return traceResponse(id, spans)
}

// handleClusterTrace answers a peer member's span query from the
// local ring only (the peer is doing the reconstruction).
func (g *Gateway) handleClusterTrace(_ context.Context, req *transport.Request) *transport.Response {
	if !g.cfg.Cluster.Authorized(req) {
		return transport.Errorf(transport.StatusForbidden, "cluster trace requires the cluster token")
	}
	id := req.GetHeader("trace")
	if id == "" {
		return transport.Errorf(transport.StatusBadRequest, "trace header required")
	}
	return traceResponse(id, wireSpans(g.trace.Spans(id)))
}

func traceResponse(id string, spans []wire.TraceSpan) *transport.Response {
	td := &wire.TraceDoc{TraceID: id, Spans: spans}
	resp := transport.OK(td.EncodeXML())
	resp.SetHeader("content-type", "text/xml")
	return resp
}
