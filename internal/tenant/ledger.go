package tenant

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Usage is one tenant's resource consumption snapshot — the quantity
// gossiped on cluster heartbeats and compared against Limits.
type Usage struct {
	Tenant       string // label form ("" is rendered as "default")
	InFlight     int64  // dispatched-but-unfinished agents
	Residents    int64  // agents resident on this member's MAS
	MailboxBytes int64  // pending mailbox payload bytes
	JournalBytes int64  // journaled agent bytes
}

// Add accumulates another snapshot (used when summing cluster-wide
// usage across members).
func (u *Usage) Add(o Usage) {
	u.InFlight += o.InFlight
	u.Residents += o.Residents
	u.MailboxBytes += o.MailboxBytes
	u.JournalBytes += o.JournalBytes
}

// Ledger is the per-tenant in-flight table for one member: the registry
// bumps a tenant's count on every dispatch and completion. The other
// Usage halves are read from their owners when needed (Admission.Slow),
// not mirrored here. The empty tenant id is the default account; a
// get-or-create map guarded by a RWMutex keeps lookups cheap (read lock
// + atomic bump on the hot path).
type Ledger struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{m: map[string]*atomic.Int64{}} }

func (l *Ledger) get(id string) *atomic.Int64 {
	l.mu.RLock()
	c := l.m[id]
	l.mu.RUnlock()
	if c != nil {
		return c
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c = l.m[id]; c == nil {
		c = new(atomic.Int64)
		l.m[id] = c
	}
	return c
}

// AddInFlight adjusts a tenant's in-flight agent count.
func (l *Ledger) AddInFlight(id string, delta int64) { l.get(id).Add(delta) }

// InFlight reads a tenant's in-flight agent count.
func (l *Ledger) InFlight(id string) int64 {
	n := l.get(id).Load()
	if n < 0 {
		return 0
	}
	return n
}

// UsageOf snapshots one tenant (negative tallies clamp to zero — a
// release racing an admission must not turn a quota check negative).
func (l *Ledger) UsageOf(id string) Usage {
	return Usage{Tenant: Label(id), InFlight: l.InFlight(id)}
}

// Snapshot returns every tenant's usage sorted by label — the rows a
// cluster heartbeat gossips.
func (l *Ledger) Snapshot() []Usage {
	l.mu.RLock()
	ids := make([]string, 0, len(l.m))
	for id := range l.m {
		ids = append(ids, id)
	}
	l.mu.RUnlock()
	out := make([]Usage, 0, len(ids))
	for _, id := range ids {
		out = append(out, l.UsageOf(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
