// Package tenant is the multi-tenant control plane (DESIGN.md §12):
// tenant accounts with shared secrets and resource limits, loaded from
// a config file; per-tenant token-bucket rate limits; weighted-fair
// admission; and an in-flight ledger whose snapshots are gossiped on
// cluster heartbeats so quotas hold cluster-wide.
//
// Every gateway admits through this package. An empty Registry is the
// single-tenant deployment: the empty tenant id ("") names the default
// account every unclaimed subscription belongs to, and it has no
// limits.
package tenant

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"

	"pdagent/internal/kxml"
)

// DefaultID is the account unclaimed subscriptions belong to. It is
// rendered as "default" in metric labels (metric label values must be
// non-empty) but stored as "" so single-tenant deployments never pay
// a map lookup keyed on a constant string.
const DefaultID = ""

// DefaultLabel is how the default tenant appears in metric labels and
// gossip rows.
const DefaultLabel = "default"

// Label renders a tenant id for metrics and wire rows.
func Label(id string) string {
	if id == DefaultID {
		return DefaultLabel
	}
	return id
}

// Limits bounds one tenant's resource consumption. Zero fields mean
// unlimited — the default tenant of a single-tenant deployment has no
// limits at all.
type Limits struct {
	// Weight is the tenant's share under weighted-fair admission
	// (default 1). A weight-4 tenant is protected up to 4× the
	// in-flight share of a weight-1 tenant when the shed watermark
	// trips.
	Weight int
	// RatePerSec refills the tenant's dispatch token bucket; 0 means
	// no rate limit.
	RatePerSec float64
	// Burst is the bucket depth (defaults to max(1, RatePerSec)).
	Burst int
	// MaxInFlight caps dispatched-but-unfinished agents, cluster-wide.
	MaxInFlight int64
	// MaxResidents caps agents resident on MAS servers, cluster-wide.
	MaxResidents int64
	// MaxMailboxBytes caps pending mailbox payload bytes, cluster-wide.
	MaxMailboxBytes int64
	// MaxJournalBytes caps journaled agent bytes, cluster-wide.
	MaxJournalBytes int64
}

// EffectiveWeight is the WFQ weight with the default applied.
func (l Limits) EffectiveWeight() int {
	if l.Weight <= 0 {
		return 1
	}
	return l.Weight
}

// Tenant is one account: who may subscribe under it, and how much of
// the cluster it may consume.
type Tenant struct {
	ID     string
	Secret string
	Limits Limits
}

// Registry is the tenant account table: the accounts a -tenants config
// file declares, held in memory. It always resolves the implicit
// default account, so an empty registry is the single-tenant
// deployment.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: map[string]*Tenant{}}
}

// Put inserts or replaces a tenant.
func (r *Registry) Put(t *Tenant) error {
	if t.ID == "" {
		return fmt.Errorf("tenant: tenant needs an id")
	}
	cp := *t
	r.mu.Lock()
	r.tenants[cp.ID] = &cp
	r.mu.Unlock()
	return nil
}

// defaultTenant is what Get answers for the default id: one shared,
// unlimited account, so resolving it costs no allocation on the
// dispatch path. Callers must not modify it.
var defaultTenant = &Tenant{ID: DefaultID}

// Get looks a tenant up by id. The default id ("") always resolves to
// an unlimited account, so single-tenant traffic needs no registration.
func (r *Registry) Get(id string) (*Tenant, bool) {
	if id == DefaultID {
		return defaultTenant, true
	}
	r.mu.RLock()
	t, ok := r.tenants[id]
	r.mu.RUnlock()
	return t, ok
}

// Registered reports whether the id names an explicitly registered
// tenant (false for the implicit default account).
func (r *Registry) Registered(id string) bool {
	r.mu.RLock()
	_, ok := r.tenants[id]
	r.mu.RUnlock()
	return ok
}

// Len reports how many tenants are registered (the default account is
// not counted).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// All returns the registered tenants sorted by id.
func (r *Registry) All() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func tenantFromNode(n *kxml.Node) (*Tenant, error) {
	if n.Name != "tenant" {
		return nil, fmt.Errorf("tenant: record root is %q, want tenant", n.Name)
	}
	id := n.AttrDefault("id", "")
	if id == "" {
		return nil, fmt.Errorf("tenant: record missing id")
	}
	t := &Tenant{ID: id, Secret: n.AttrDefault("secret", "")}
	t.Limits = Limits{
		Weight:          atoi(n.AttrDefault("weight", "")),
		RatePerSec:      atof(n.AttrDefault("rate", "")),
		Burst:           atoi(n.AttrDefault("burst", "")),
		MaxInFlight:     atoi64(n.AttrDefault("max-inflight", "")),
		MaxResidents:    atoi64(n.AttrDefault("max-residents", "")),
		MaxMailboxBytes: atoi64(n.AttrDefault("max-mailbox-bytes", "")),
		MaxJournalBytes: atoi64(n.AttrDefault("max-journal-bytes", "")),
	}
	return t, nil
}

func atoi(s string) int     { n, _ := strconv.Atoi(s); return n }
func atoi64(s string) int64 { n, _ := strconv.ParseInt(s, 10, 64); return n }
func atof(s string) float64 { f, _ := strconv.ParseFloat(s, 64); return f }

// ParseConfig parses a tenants config document — the payload of the
// daemons' -tenants flag:
//
//	<tenants>
//	  <tenant id="acme" secret="s3" weight="4" rate="100" .../>
//	  <tenant id="hog"  secret="s7" weight="1" rate="20"  burst="5"/>
//	</tenants>
func ParseConfig(doc []byte) ([]*Tenant, error) {
	root, err := kxml.ParseBytes(doc)
	if err != nil {
		return nil, fmt.Errorf("tenant: parsing config: %w", err)
	}
	if root.Name != "tenants" {
		return nil, fmt.Errorf("tenant: config root is %q, want tenants", root.Name)
	}
	var out []*Tenant
	for _, child := range root.FindAll("tenant") {
		t, err := tenantFromNode(child)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// LoadFile reads a -tenants config file into a memory registry.
func LoadFile(path string) (*Registry, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ts, err := ParseConfig(doc)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	r := NewRegistry()
	for _, t := range ts {
		if err := r.Put(t); err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", path, err)
		}
	}
	return r, nil
}
