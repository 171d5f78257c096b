package churnsim

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"pdagent/internal/cluster"
	"pdagent/internal/gateway"
	"pdagent/internal/netsim"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
)

// TestStormRace3Tenants is the multi-tenant reconnect storm (run with
// -race): devices split across three tenant accounts migrate their
// mailboxes between cluster members under concurrent pulls, and the
// per-tenant accounting must conserve — every tenant's mail is
// delivered exactly once to its own devices, the tenant binding
// follows each mailbox to its new edge, and once everything is acked
// no member's per-tenant byte tally holds a single stranded byte.
func TestStormRace3Tenants(t *testing.T) {
	const (
		devices = 3_000
		members = 3
	)
	tenantIDs := []string{"t-red", "t-green", "t-blue"}
	treg := tenant.NewRegistry()
	for _, id := range tenantIDs {
		if err := treg.Put(&tenant.Tenant{ID: id, Secret: "s-" + id}); err != nil {
			t.Fatal(err)
		}
	}

	kp, err := stormKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(7)
	addrs := make([]string, members)
	for i := range addrs {
		addrs[i] = "gw-" + strconv.Itoa(i)
	}
	gws := make([]*gateway.Gateway, members)
	for i, addr := range addrs {
		gw, err := gateway.New(gateway.Config{
			Addr:      addr,
			KeyPair:   kp,
			Transport: net.Transport(netsim.ZoneWired),
			Tenants:   treg,
			Mailbox:   &gateway.MailboxConfig{Store: rms.NewMemStore("trace-"+addr, 0)},
			Cluster: cluster.NewNode(cluster.Config{
				Self:      addr,
				Seeds:     addrs,
				Transport: net.Transport(netsim.ZoneWired),
				Secret:    "race-secret",
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		net.AddHost(addr, netsim.ZoneWired, gw.Handler())
		gws[i] = gw
	}

	// Every mailbox starts at member 0, bound to its tenant, holding
	// one result; the device then reconnects through member 1 or 2.
	tenantOf := func(d int) string { return tenantIDs[d%len(tenantIDs)] }
	tokens := make([]string, devices)
	for d := 0; d < devices; d++ {
		dev := devName(d)
		tokens[d] = gws[0].Mailbox().Touch(dev)
		gws[0].Mailbox().SetTenant(dev, tenantOf(d))
		if _, dup, err := gws[0].Mailbox().Enqueue(dev, push.KindResult, "ag-"+dev, "race:"+dev, churnBody); err != nil || dup {
			t.Fatalf("preload %s: dup=%v err=%v", dev, dup, err)
		}
	}

	var (
		ledMu sync.Mutex
		leds  = map[string]*ledger{}
	)
	for _, id := range tenantIDs {
		leds[id] = newLedger()
	}
	for d := 0; d < devices; d++ {
		leds[tenantOf(d)].enqueue("race:" + devName(d))
	}

	tr := net.Transport(netsim.ZoneWireless)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := devName(d)
			edge := addrs[1+d%2]
			entries, watermark, err := raceMailboxPoll(ctx, tr, edge, dev, tokens[d], addrs[0], 0)
			if err != nil {
				errs <- err
				return
			}
			if len(entries) != 1 {
				errs <- errStorm(dev, "migration poll returned %d entries, want 1", len(entries))
				return
			}
			ledMu.Lock()
			leds[tenantOf(d)].deliver(entries[0].EventID)
			ledMu.Unlock()
			if rest, _, err := raceMailboxPoll(ctx, tr, edge, dev, tokens[d], "", watermark); err != nil {
				errs <- err
			} else if len(rest) != 0 {
				errs <- errStorm(dev, "%d entries after ack", len(rest))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Per-tenant conservation: each account's mail arrived exactly
	// once, none crossed accounts.
	perTenant := uint64(devices / len(tenantIDs))
	for _, id := range tenantIDs {
		led := leds[id]
		if led.delivered != perTenant || led.redelivered != 0 {
			t.Fatalf("tenant %s: delivered %d/%d, redelivered %d", id, led.delivered, perTenant, led.redelivered)
		}
	}
	// The binding followed every mailbox to its new edge...
	for d := 0; d < devices; d++ {
		dev := devName(d)
		if got := gws[1+d%2].Mailbox().TenantOf(dev); got != tenantOf(d) {
			t.Fatalf("%s: tenant binding at new edge = %q, want %q", dev, got, tenantOf(d))
		}
	}
	// ...and with everything acked, no member's per-tenant byte tally
	// holds a stranded byte for any account.
	for i, gw := range gws {
		for label, b := range gw.Mailbox().BytesByTenant() {
			if b != 0 {
				t.Fatalf("member %d: %d bytes stranded under tenant %s", i, b, label)
			}
		}
	}
}
