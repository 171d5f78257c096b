package gateway

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/metrics"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
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
	g.metrics = metrics.NewRegistry()
	g.trace = metrics.NewTraceRing(g.cfg.Addr, 0)
	g.log = metrics.NewLogger("gateway", g.cfg.Logf)

	m := g.metrics
	g.mDispatchUs = m.Histogram("pdagent_dispatch_us",
		"Device dispatch handler latency, microseconds.")
	g.mDispatched = m.Counter("pdagent_dispatch_total",
		"Device dispatches handled (admitted, forwarded, replayed or refused).")
	g.mDispatchErr = m.Counter("pdagent_dispatch_errors_total",
		"Device dispatches answered with a non-OK status (shed included).")
	g.mForwarded = m.Counter("pdagent_dispatch_forwarded_total",
		"Dispatches forwarded to their consistent-hash home member.")
	g.mResults = m.Counter("pdagent_results_total",
		"Agents arriving home with a result document (done, failed or retracted).")
	g.mRelayed = m.Counter("pdagent_results_relayed_total",
		"Result documents relayed to the edge member of a forwarded dispatch.")
	g.mAdopted = m.Counter("pdagent_results_adopted_total",
		"Relayed or fetched result documents adopted at this edge.")
	// Refusals by reason: the stale code hash's 412, the key check's
	// 401, the tenant's rate and quota 429s and the in-flight
	// watermark's 503 (the unknown session's 412 is
	// pdagent_unseal_total{path="unknown"}). Every row is there from the
	// first scrape.
	g.mRefused = m.CounterVec("pdagent_dispatch_refused_total",
		"Device dispatches refused before admission, by reason: 412-code named its code by a hash this gateway's catalogue does not hold, 401 named no subscription or carried a bad dispatch key, 429-rate was over its tenant's dispatch rate, 429-quota over a tenant quota, 503-watermark was shed at the in-flight watermark.",
		"reason")
	g.mRefusedCode, g.mRefusedAuth = g.mRefused.With("412-code"), g.mRefused.With("401")
	g.mRefusedShed = g.mRefused.With("503-watermark")
	g.mRefused.With(tenant.RefusedRate)
	g.mRefused.With(tenant.RefusedQuota)
	// Both rows are resolved here, so an answer touches one atomic.
	frames := m.CounterVec("pdagent_mailbox_frames_total",
		"Mailbox answers sent to devices, by frame codec: flate-dict to a device that sent accept: 3, flate to any other.",
		"codec")
	g.mFramesFlate, g.mFramesDict = frames.With(compress.Flate.String()), frames.With(compress.FlateDict.String())
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
		"Callers waiting for an outbound slot (status chase, management verb).",
		func() float64 { return float64(g.out.waiting.Load()) })
	m.GaugeFunc("pdagent_outbound_busy",
		"Outbound slots held by a running call.",
		func() float64 { return float64(len(g.out.slots)) })
	m.GaugeFunc("pdagent_outbound_workers",
		"Bound on concurrent outbound calls (OutboundWorkers).",
		func() float64 { return float64(cap(g.out.slots)) })
	m.GaugeFunc("pdagent_results_retired",
		"Result documents deleted since start because the registry keeps at most mas.MaxRetired finished journeys.",
		func() float64 { return float64(g.reg.docsRetired.Load()) })
	m.GaugeFunc("pdagent_trace_spans",
		"Spans recorded into the trace ring since start.",
		func() float64 { return float64(g.trace.Total()) })
	m.GaugeFunc("pdagent_trace_dropped",
		"Spans overwritten in the trace ring (ring capacity exceeded).",
		func() float64 { return float64(g.trace.Dropped()) })

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

	// The embedded MAS registers the agent journal's WAL series.
	if w := rms.WALOf(g.cfg.Mailbox.Store); w != nil && g.cfg.Mailbox.Store != g.cfg.Journal {
		w.RegisterMetrics(m, "pdagent_mailbox_wal", "mailbox store")
	}
	if g.cfg.Repl != nil {
		g.cfg.Repl.RegisterMetrics(m)
	}
	g.initTenantObserve(m)

	if node := g.cfg.Cluster; node != nil {
		m.GaugeFunc("pdagent_cluster_view_version",
			"Membership view version (increments on every churn event).",
			func() float64 { return float64(node.Version()) })
		m.GaugeFunc("pdagent_cluster_alive",
			"Cluster members currently considered alive (self included).",
			func() float64 { return float64(len(node.AliveAddrs())) })
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
// member's span ring with every alive cluster member's, then chases
// transfer-out hops to MAS hosts, which are not cluster members and
// therefore only discoverable from the itinerary itself. Members and
// hosts are asked the same public question: this endpoint with a
// "scope: local" header, which answers from the local ring only and so
// keeps reconstruction non-recursive.
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
	ask := func(addr string) {
		queried[addr] = true
		hreq := &transport.Request{Path: "/pdagent/trace/" + id}
		hreq.SetHeader("scope", "local")
		resp, err := g.cfg.Transport.RoundTrip(ctx, addr, hreq)
		if err != nil || !resp.IsOK() {
			return
		}
		if td, err := wire.ParseTrace(resp.Body); err == nil {
			spans = append(spans, td.Spans...)
		}
	}
	if node := g.cfg.Cluster; node != nil {
		for _, member := range node.AliveAddrs() {
			if !queried[member] {
				ask(member)
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
		ask(next)
	}
	if len(spans) == 0 {
		return transport.Errorf(transport.StatusNotFound, "no spans recorded for trace %q", id)
	}
	sortSpans(spans)
	return traceResponse(id, spans)
}

func traceResponse(id string, spans []wire.TraceSpan) *transport.Response {
	td := &wire.TraceDoc{TraceID: id, Spans: spans}
	resp := transport.OK(td.EncodeXML())
	resp.SetHeader("content-type", "text/xml")
	return resp
}
