package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pdagent/internal/kxml"
)

// mergeSeeds returns real cluster-view documents: a member's view with
// usage rows, a fence and piggybacked locations, the same member's view
// once it suspects and then evicts gw-1, and a location push.
func mergeSeeds(t testing.TB) [][]byte {
	f := newFleet(t, 3)
	ctx := context.Background()
	for _, n := range f.nodes {
		n.SetTenantUsageFunc(func() []TenantUsage {
			return []TenantUsage{{Tenant: "acme", InFlight: 3, MailboxBytes: 512}, {Tenant: "default", Residents: 2}}
		})
	}
	f.nodes[0].RaiseFence("gw-9")
	f.tickAll(ctx)
	view := func() []byte {
		f.nodes[0].PublishLocation(ctx, Location{AgentID: "ag-1", Addr: "bank-a", HomeGW: "gw-0", Seq: 3})
		f.nodes[0].PublishLocation(ctx, Location{AgentID: "ag-2", Addr: "gw-0", HomeGW: "gw-0", Seq: 5, Terminal: true})
		return f.nodes[0].viewDoc()
	}
	docs := [][]byte{view()}
	if err := f.net.KillHost("gw-1"); err != nil {
		t.Fatal(err)
	}
	for _, ticks := range []int{5, 10} {
		for i := 0; i < ticks; i++ {
			f.nodes[0].Tick(ctx)
		}
		docs = append(docs, view())
	}
	docs = append(docs, EncodeUpdate(Location{AgentID: "ag-3", Addr: "bank-b", HomeGW: "gw-2", Seq: 1}))
	return docs
}

// mergeTarget is gw-1 holding usage rows from gw-0 and gw-2 and a fence
// of its own, so a merge has state to keep.
func mergeTarget(seeds [][]byte) *Node {
	n := NewNode(Config{Self: "gw-1", Seeds: []string{"gw-0", "gw-1", "gw-2"}, Secret: "s"})
	n.RaiseFence("gw-7")
	other := NewNode(Config{Self: "gw-2", Seeds: []string{"gw-0", "gw-1", "gw-2"}, Secret: "s"})
	other.SetTenantUsageFunc(func() []TenantUsage { return []TenantUsage{{Tenant: "acme", JournalBytes: 64}} })
	_ = n.merge(seeds[0])
	_ = n.merge(other.viewDoc())
	return n
}

// FuzzMerge feeds cluster-view documents — the heartbeat decoder's
// input — to a member with state. Whatever the document, the merge
// must not panic, must never lower a fence, must attach usage rows to
// the sending member's entry only, and must never leave the member
// itself suspect or left: an entry reporting it so is refuted with a
// higher incarnation (one at the largest incarnation, which nothing
// could refute, is dropped).
func FuzzMerge(f *testing.F) {
	seeds := mergeSeeds(f)
	for _, doc := range seeds {
		f.Add(doc)
		for _, cut := range []int{len(doc) / 3, len(doc) / 2, len(doc) - 1} {
			f.Add(doc[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		n := mergeTarget(seeds)
		n.mu.Lock()
		fences := make(map[string]uint64, len(n.fences))
		for addr, e := range n.fences {
			fences[addr] = e
		}
		usage := map[string][]TenantUsage{}
		for addr, e := range n.members {
			usage[addr] = e.usage
		}
		n.mu.Unlock()

		_ = n.merge(doc)

		from := ""
		var selfEntries []*kxml.Node
		if root, err := kxml.ParseBytes(doc); err == nil && root.Name == "cluster-view" {
			from = root.AttrDefault("from", "")
			for _, c := range root.Children {
				if c.Name == "member" && c.AttrDefault("addr", "") == n.Self() {
					selfEntries = append(selfEntries, c)
				}
			}
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		for addr, before := range fences {
			if n.fences[addr] < before {
				t.Fatalf("fence of %s lowered %d -> %d", addr, before, n.fences[addr])
			}
		}
		for addr, e := range n.members {
			if addr != from && !reflect.DeepEqual(e.usage, usage[addr]) {
				t.Fatalf("usage rows attached to %s, but the sender is %q", addr, from)
			}
		}
		if _, ok := n.members[n.Self()]; ok || n.leaving {
			t.Fatal("merge put self in the member table or marked it leaving")
		}
		for _, c := range selfEntries {
			state := MemberState(c.AttrDefault("state", string(StateAlive)))
			inc := atoiDefault(c.AttrDefault("inc", "0"))
			if state != StateAlive && inc != math.MaxInt && n.selfInc <= inc {
				t.Fatalf("self reported %s at incarnation %d, not refuted (own incarnation %d)", state, inc, n.selfInc)
			}
		}
	})
}
