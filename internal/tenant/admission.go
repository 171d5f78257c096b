package tenant

import (
	"fmt"
	"sync"
	"time"
)

// Decision is the outcome of one admission check. A refused dispatch
// carries the reason and a Retry-After hint; the gateway maps
// refusals to 429 (the tenant exceeded its own rate or quota — the
// device should back off and retry later) as opposed to the 503 the
// overload shedder answers (the member is saturated — the device
// should try another member or retry soon).
type Decision struct {
	OK           bool
	Reason       string
	RetryAfterNs int64
}

// defaultRetryAfter is the Retry-After hint when the refusal has no
// natural horizon (quota refusals: the device cannot know when the
// tenant's agents will finish).
const defaultRetryAfter = time.Second

// Admission is the per-member tenant admission layer: token-bucket
// rate limits, cluster-wide quota checks against the local ledger
// plus gossiped remote usage, and the weighted-fair shed decision
// used when the in-flight watermark trips.
type Admission struct {
	// Registry resolves tenant ids to their limits. Required.
	Registry *Registry
	// Ledger is this member's live usage. Required.
	Ledger *Ledger
	// Now is the nanosecond clock (default time.Now().UnixNano();
	// benches inject their virtual clock).
	Now func() int64
	// Remote, when set, returns the rest of the cluster's last-known
	// per-tenant usage (summed over members, keyed by tenant label) so
	// quotas hold cluster-wide, not just per member.
	Remote func() map[string]Usage
	// Slow, when set, supplies the usage halves the ledger cannot
	// track cheaply — resident-agent counts and journal bytes (MAS
	// table walks) and pending mailbox bytes (the hub's own tally).
	// It is consulted only when a tenant actually has one of those
	// quotas configured, so unlimited tenants never pay for the walk.
	// Its InFlight must be zero: the ledger counts that half, and the
	// fields add.
	Slow func(id string) Usage

	mu      sync.Mutex
	buckets map[string]*Bucket
}

// NewAdmission builds an admission layer over a registry and ledger.
func NewAdmission(reg *Registry, led *Ledger) *Admission {
	return &Admission{Registry: reg, Ledger: led, buckets: map[string]*Bucket{}}
}

func (a *Admission) now() int64 {
	if a.Now != nil {
		return a.Now()
	}
	return time.Now().UnixNano()
}

// bucket returns the tenant's rate bucket, building it lazily from
// the registered limits (nil when the tenant has no rate limit).
func (a *Admission) bucket(t *Tenant) *Bucket {
	if t.Limits.RatePerSec <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[t.ID]
	if !ok {
		b = NewBucket(t.Limits.RatePerSec, t.Limits.Burst)
		a.buckets[t.ID] = b
	}
	return b
}

// usage returns the tenant's cluster-wide usage: the local ledger,
// the slow supplier (MAS/hub walks), plus whatever the heartbeats
// last gossiped about other members. wantSlow skips the walk for
// tenants with no residents/mailbox/journal quota.
func (a *Admission) usage(id string, wantSlow bool) Usage {
	u := a.Ledger.UsageOf(id)
	if wantSlow && a.Slow != nil {
		u.Add(a.Slow(id))
	}
	if a.Remote != nil {
		if remote, ok := a.Remote()[Label(id)]; ok {
			u.Add(remote)
		}
	}
	return u
}

// Admit runs the rate and quota checks for one dispatch of a tenant.
// It does not consume quota — the ledger moves when the dispatch
// actually admits — but it does consume a rate token.
func (a *Admission) Admit(id string) Decision {
	t, ok := a.Registry.Get(id)
	if !ok {
		return Decision{Reason: fmt.Sprintf("unknown tenant %q", id), RetryAfterNs: int64(defaultRetryAfter)}
	}
	if b := a.bucket(t); b != nil {
		now := a.now()
		if !b.Take(now) {
			retry := b.RetryAfterNs(now)
			if retry <= 0 {
				retry = int64(defaultRetryAfter)
			}
			return Decision{
				Reason:       fmt.Sprintf("tenant %s over dispatch rate (%.6g/s)", Label(id), t.Limits.RatePerSec),
				RetryAfterNs: retry,
			}
		}
	}
	l := t.Limits
	if l.MaxInFlight > 0 || l.MaxResidents > 0 || l.MaxMailboxBytes > 0 || l.MaxJournalBytes > 0 {
		u := a.usage(id, l.MaxResidents > 0 || l.MaxJournalBytes > 0 || l.MaxMailboxBytes > 0)
		switch {
		case l.MaxInFlight > 0 && u.InFlight >= l.MaxInFlight:
			return quotaRefusal(id, "in-flight agents", u.InFlight, l.MaxInFlight)
		case l.MaxResidents > 0 && u.Residents >= l.MaxResidents:
			return quotaRefusal(id, "resident agents", u.Residents, l.MaxResidents)
		case l.MaxMailboxBytes > 0 && u.MailboxBytes >= l.MaxMailboxBytes:
			return quotaRefusal(id, "mailbox bytes", u.MailboxBytes, l.MaxMailboxBytes)
		case l.MaxJournalBytes > 0 && u.JournalBytes >= l.MaxJournalBytes:
			return quotaRefusal(id, "journal bytes", u.JournalBytes, l.MaxJournalBytes)
		}
	}
	return Decision{OK: true}
}

func quotaRefusal(id, what string, have, max int64) Decision {
	return Decision{
		Reason:       fmt.Sprintf("tenant %s over quota: %s %d >= %d", Label(id), what, have, max),
		RetryAfterNs: int64(defaultRetryAfter),
	}
}

// Protected reports whether a tenant's dispatches should survive an
// overload shed: while the member is over its watermark, tenants
// consuming less than their weighted fair share of the in-flight
// budget stay admitted (they did not cause the overload) and the
// over-share tenants are shed first. maxInFlight is the watermark the
// shedder is enforcing; a non-positive value protects nobody.
func (a *Admission) Protected(id string, maxInFlight int) bool {
	if maxInFlight <= 0 {
		return false
	}
	t, ok := a.Registry.Get(id)
	if !ok {
		return false
	}
	total := 0
	weight := t.Limits.EffectiveWeight()
	for _, other := range a.Registry.All() {
		total += other.Limits.EffectiveWeight()
	}
	if !a.Registry.Registered(id) {
		// The default account competes with weight 1 alongside the
		// registered tenants.
		total += t.Limits.EffectiveWeight()
	}
	if total <= 0 {
		total = weight
	}
	share := int64(maxInFlight) * int64(weight) / int64(total)
	if share < 1 {
		share = 1
	}
	return a.Ledger.InFlight(id) < share
}
