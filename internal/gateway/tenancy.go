package gateway

import (
	"sort"
	"strconv"
	"time"

	"pdagent/internal/metrics"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

// This file is the gateway's admission control and its half of the
// tenant control plane (DESIGN.md §11–§12). The tenant package owns
// the mechanisms — accounts, token buckets, the in-flight ledger,
// weighted-fair math; the code here runs every device dispatch through
// them (admitTenant), composes the member's full per-tenant usage for
// heartbeat gossip (tenantUsage), and admission reads the fleet's
// gossiped rows straight from the cluster node, so quotas hold
// cluster-wide. A gateway without configured tenants runs the same
// code on the one default account.

// Shed refusals carry this span detail and this Retry-After (seconds).
const (
	shedInFlight   = "in-flight-watermark"
	shedRetryAfter = "1"
)

// shedTrace is the pseudo trace id shed spans are recorded under:
// shed requests never got an agent id, but operators still want
// `/pdagent/trace/_shed` to show the recent refusals.
const shedTrace = "_shed"

// TenantLedger exposes this member's per-tenant in-flight ledger
// (tests, benchmarks).
func (g *Gateway) TenantLedger() *tenant.Ledger { return g.reg.ledger }

// admitTenant is the one admission rule for an authenticated device
// dispatch. First the shed: while the registry's in-flight count is at
// Config.ShedInFlight, a tenant at or over its weighted share of that
// watermark is refused 503 with a Retry-After (the member is
// overloaded; devices route around it), and tenants under their share
// — who did not cause the overload — stay admitted. With one account
// its share is the whole watermark, so this is a flat in-flight
// watermark. Then the tenant's own rate and quota limits, answered 429
// with a Retry-After (the member is fine, the account is not). Nil
// means admitted. Forwarded /cluster/dispatch requests never come
// here: the edge admitted the journey and consumed its nonce, and
// refusing it at the home would strand an accepted dispatch.
func (g *Gateway) admitTenant(tenantID string) *transport.Response {
	label := tenant.Label(tenantID)
	if mark := g.cfg.ShedInFlight; mark > 0 && g.reg.InFlight() >= mark && !g.admission.Protected(tenantID, mark) {
		g.mRefusedShed.Inc()
		g.mTenantShed.With(label).Inc()
		g.trace.Record(shedTrace, "shed", shedInFlight)
		resp := transport.Errorf(transport.StatusUnavailable,
			"gateway %s shedding load: %s", g.cfg.Addr, shedInFlight)
		resp.SetHeader("retry-after", shedRetryAfter)
		return resp
	}
	if d := g.admission.Admit(tenantID); !d.OK {
		g.mRefused.With(d.Kind).Inc()
		g.mTenantQuota.With(label).Inc()
		g.trace.Record(shedTrace, "quota-refused", d.Reason)
		resp := transport.Errorf(transport.StatusTooManyRequests,
			"gateway %s: %s", g.cfg.Addr, d.Reason)
		resp.SetHeader("retry-after", retryAfterSecs(d.RetryAfterNs))
		return resp
	}
	g.mTenantDispatch.With(label).Inc()
	return nil
}

// retryAfterSecs renders a nanosecond retry hint as the whole-seconds
// Retry-After header value, rounding up so "0.2s from now" does not
// invite an immediate retry.
func retryAfterSecs(ns int64) string {
	secs := (ns + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// slowUsage is the admission layer's Slow supplier: the usage halves
// the ledger cannot track cheaply, read straight from their owners —
// resident agents and journal bytes from MAS table walks, pending
// mailbox bytes from the hub's per-tenant tally. Consulted only for
// tenants that configured one of those quotas.
func (g *Gateway) slowUsage(id string) tenant.Usage {
	label := tenant.Label(id)
	u := tenant.Usage{Tenant: label}
	u.Residents = g.mas.ResidentsByTenant()[label]
	u.JournalBytes = g.mas.JournalBytesByTenant()[label]
	u.MailboxBytes = g.hub.BytesByTenant()[label]
	return u
}

// tenantUsage composes this member's complete per-tenant usage rows
// for heartbeat gossip: in-flight counts from the ledger, residents
// and journal bytes from the MAS, mailbox bytes from the hub. Rows
// are keyed by label and sorted, matching the wire format.
func (g *Gateway) tenantUsage() []tenant.Usage {
	rows := map[string]*tenant.Usage{}
	row := func(label string) *tenant.Usage {
		r, ok := rows[label]
		if !ok {
			r = &tenant.Usage{Tenant: label}
			rows[label] = r
		}
		return r
	}
	for _, u := range g.reg.ledger.Snapshot() {
		row(u.Tenant).InFlight += u.InFlight
	}
	for label, n := range g.mas.ResidentsByTenant() {
		row(label).Residents += n
	}
	for label, b := range g.mas.JournalBytesByTenant() {
		row(label).JournalBytes += b
	}
	for label, b := range g.hub.BytesByTenant() {
		row(label).MailboxBytes += b
	}
	out := make([]tenant.Usage, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// initTenantObserve registers the gateway's tenant-labelled metric
// families (called from initObserve; the embedded MAS registers its
// residency and journal rows). The counter
// families pre-touch their default rows so a scrape is well-formed
// before the first dispatch; the gauges always emit a default row for
// the same reason.
func (g *Gateway) initTenantObserve(m *metrics.Registry) {
	g.mTenantDispatch = m.CounterVec("pdagent_tenant_dispatch_total",
		"Device dispatches admitted past tenant admission, by tenant.", "tenant")
	g.mTenantShed = m.CounterVec("pdagent_tenant_shed_total",
		"Device dispatches shed under overload, by tenant (fair-share-protected tenants are not shed).", "tenant")
	g.mTenantQuota = m.CounterVec("pdagent_tenant_quota_refused_total",
		"Device dispatches refused (429) by tenant rate or quota limits, by tenant.", "tenant")
	g.mTenantDispatch.With(tenant.DefaultLabel)
	g.mTenantShed.With(tenant.DefaultLabel)
	g.mTenantQuota.With(tenant.DefaultLabel)

	m.GaugeVecFunc("pdagent_tenant_inflight",
		"Dispatched-but-unfinished agents on this member, by tenant.", "tenant",
		func() map[string]float64 {
			counts := map[string]int64{}
			for _, u := range g.reg.ledger.Snapshot() {
				counts[u.Tenant] = u.InFlight
			}
			return tenant.GaugeRows(counts)
		})
	m.GaugeVecFunc("pdagent_tenant_mailbox_bytes",
		"Pending mailbox payload bytes on this member, by tenant.", "tenant",
		func() map[string]float64 { return tenant.GaugeRows(g.hub.BytesByTenant()) })
}
