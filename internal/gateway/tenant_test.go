package gateway

import (
	"context"
	"strings"
	"testing"

	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// newTenantFixture builds a multi-tenant gateway with the given
// accounts registered.
func newTenantFixture(t *testing.T, mut func(*Config), tenants ...*tenant.Tenant) *fixture {
	t.Helper()
	reg := tenant.NewRegistry()
	for _, tn := range tenants {
		if err := reg.Put(tn); err != nil {
			t.Fatal(err)
		}
	}
	return newFixtureCfg(t, func(c *Config) {
		c.Tenants = reg
		if mut != nil {
			mut(c)
		}
	})
}

// subscribeTenant is fixture.subscribe with the §12 tenant binding
// headers attached.
func (f *fixture) subscribeTenant(t *testing.T, codeID, owner, tenantID, secret string) (*wire.Subscription, *transport.Response) {
	t.Helper()
	req := &transport.Request{Path: "/pdagent/subscribe"}
	req.SetHeader("code-id", codeID)
	req.SetHeader("owner", owner)
	req.SetHeader("tenant", tenantID)
	req.SetHeader("tenant-secret", secret)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsOK() {
		return nil, resp
	}
	sub, err := wire.ParseSubscription(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sub, resp
}

// echoPI builds a dispatch of the package sub subscribed to (echo or
// slow echo).
func (f *fixture) echoPI(sub *wire.Subscription, owner string) *wire.PackedInformation {
	return &wire.PackedInformation{
		CodeID:      sub.Package.CodeID,
		DispatchKey: pisec.DispatchKey(sub.Package.CodeID, sub.Secret),
		Owner:       owner,
		Source:      sub.Package.Source,
		Params:      map[string]mavm.Value{"greeting": mavm.Str("hi")},
	}
}

func TestTenantSubscribeBinding(t *testing.T) {
	f := newTenantFixture(t, nil, &tenant.Tenant{ID: "acme", Secret: "s3"})
	f.addSlowEcho(t)

	// A bad tenant secret must not bind — otherwise anyone could park
	// their devices on someone else's account.
	if _, resp := f.subscribeTenant(t, "slow", "dev-1", "acme", "wrong"); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("bad tenant secret: %d, want 401", resp.Status)
	}
	if _, resp := f.subscribeTenant(t, "slow", "dev-1", "nobody", "s3"); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("unknown tenant: %d, want 401", resp.Status)
	}

	sub, _ := f.subscribeTenant(t, "slow", "dev-1", "acme", "s3")
	if sub == nil {
		t.Fatal("subscribe failed")
	}
	resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	// The in-flight agent bills to acme, and the billing drains when
	// the journey completes.
	if got := f.gw.TenantLedger().InFlight("acme"); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
	f.queue.Drain()
	if got := f.gw.TenantLedger().InFlight("acme"); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}

	// Subscriptions without tenant headers still work: they bill to
	// the default account.
	sub2 := f.subscribe(t, "slow", "dev-2")
	if resp := f.dispatchPI(t, f.echoPI(sub2, "dev-2"), true); !resp.IsOK() {
		t.Fatalf("default-account dispatch: %d %s", resp.Status, resp.Text())
	}
	f.queue.Drain()
}

// TestTenantRateLimit429: a bucket of two admits two uploads and
// answers the third 429. Retrying an admitted upload (its answer was
// lost) creates nothing, so it is answered with its agent id and costs
// no token — even from an empty bucket.
func TestTenantRateLimit429(t *testing.T) {
	f := newTenantFixture(t, nil,
		&tenant.Tenant{ID: "acme", Secret: "s3", Limits: tenant.Limits{RatePerSec: 0.0001, Burst: 2}})
	f.addEcho(t)
	sub, _ := f.subscribeTenant(t, "echo", "dev-1", "acme", "s3")

	first := f.echoPI(sub, "dev-1")
	admitted := f.dispatchPI(t, first, true)
	if !admitted.IsOK() {
		t.Fatalf("first dispatch: %d %s", admitted.Status, admitted.Text())
	}
	retry := func(when string) {
		t.Helper()
		if resp := f.dispatchPI(t, first, true); !resp.IsOK() || resp.Text() != admitted.Text() {
			t.Fatalf("retry %s: %d %q, want %q", when, resp.Status, resp.Text(), admitted.Text())
		}
	}
	retry("with a token left")
	if resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true); !resp.IsOK() {
		t.Fatalf("second dispatch (the retry must not have spent its token): %d %s", resp.Status, resp.Text())
	}
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="429-rate"} 0`)
	resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true)
	if resp.Status != transport.StatusTooManyRequests {
		t.Fatalf("over-rate dispatch: %d, want 429", resp.Status)
	}
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="429-rate"} 1`)
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="429-quota"} 0`)
	if resp.GetHeader("retry-after") == "" {
		t.Fatal("429 missing Retry-After hint")
	}
	retry("from an empty bucket")
}

func TestTenantMaxInFlight429(t *testing.T) {
	f := newTenantFixture(t, nil,
		&tenant.Tenant{ID: "acme", Secret: "s3", Limits: tenant.Limits{MaxInFlight: 1}})
	f.addSlowEcho(t)
	sub, _ := f.subscribeTenant(t, "slow", "dev-1", "acme", "s3")

	if resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true); !resp.IsOK() {
		t.Fatalf("first dispatch: %d %s", resp.Status, resp.Text())
	}
	// The first journey has not completed (it suspended; the serial
	// queue holding the rest of it is undrained), so the account is at
	// its in-flight cap: quota refusal, not a shed.
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="429-quota"} 0`)
	resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true)
	if resp.Status != transport.StatusTooManyRequests {
		t.Fatalf("over-quota dispatch: %d, want 429", resp.Status)
	}
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="429-quota"} 1`)
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="429-rate"} 0`)
	f.wantScrapeRow(t, `pdagent_dispatch_refused_total{reason="503-watermark"} 0`)
	f.queue.Drain()
	if resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true); !resp.IsOK() {
		t.Fatalf("post-drain dispatch: %d %s", resp.Status, resp.Text())
	}
	f.queue.Drain()
}

func TestWeightedFairShed503(t *testing.T) {
	f := newTenantFixture(t, func(c *Config) {
		c.ShedInFlight = 1
	},
		&tenant.Tenant{ID: "hog", Secret: "sh"},
		&tenant.Tenant{ID: "meek", Secret: "sm"})
	f.addSlowEcho(t)
	hogSub, _ := f.subscribeTenant(t, "slow", "dev-h", "hog", "sh")
	meekSub, _ := f.subscribeTenant(t, "slow", "dev-m", "meek", "sm")

	if resp := f.dispatchPI(t, f.echoPI(hogSub, "dev-h"), true); !resp.IsOK() {
		t.Fatalf("first dispatch: %d %s", resp.Status, resp.Text())
	}
	// The watermark is tripped and hog holds the in-flight budget: its
	// next dispatch is shed (503 — member overloaded), while meek is
	// under its fair share and stays admitted.
	resp := f.dispatchPI(t, f.echoPI(hogSub, "dev-h"), true)
	if resp.Status != transport.StatusUnavailable {
		t.Fatalf("over-share dispatch: %d, want 503", resp.Status)
	}
	if resp.GetHeader("retry-after") == "" {
		t.Fatal("503 missing Retry-After hint")
	}
	if resp := f.dispatchPI(t, f.echoPI(meekSub, "dev-m"), true); !resp.IsOK() {
		t.Fatalf("protected tenant shed too: %d %s", resp.Status, resp.Text())
	}
	f.queue.Drain()
}

func TestTenantMetricsLabelled(t *testing.T) {
	f := newTenantFixture(t, nil, &tenant.Tenant{ID: "acme", Secret: "s3"})
	f.addEcho(t)
	sub, _ := f.subscribeTenant(t, "echo", "dev-1", "acme", "s3")
	if resp := f.dispatchPI(t, f.echoPI(sub, "dev-1"), true); !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	f.queue.Drain()

	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", &transport.Request{Path: "/metrics"})
	if err != nil || !resp.IsOK() {
		t.Fatalf("metrics: %v %v", resp, err)
	}
	body := resp.Text()
	for _, want := range []string{
		`pdagent_tenant_dispatch_total{tenant="acme"} 1`,
		`pdagent_tenant_dispatch_total{tenant="default"} 0`,
		`pdagent_tenant_inflight{tenant="acme"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
