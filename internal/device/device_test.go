package device

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/gateway"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// fixture wires a device against a real gateway over netsim.
type fixture struct {
	net   *netsim.Network
	queue *netsim.Queue
	gw    *gateway.Gateway
	plat  *Platform
	store rms.Store
}

var (
	kpOnce sync.Once
	kp     *pisec.KeyPair
)

// fixtureFuel is the fixture gateways' FuelSlice. An agent's first slice
// runs inside its dispatch: "echo" finishes within it — a zero-hop
// journey, its result stored before the dispatch answers — while "slow"
// needs a second slice, so it is still travelling when the dispatch
// answers and finishes when the test drains the fixture's queue.
const fixtureFuel = 4096

const echoSrc = `deliver("echo", params()); deliver("id", agentid());`

func addEchoPackages(t *testing.T, gw *gateway.Gateway) {
	t.Helper()
	for id, src := range map[string]string{
		"echo": echoSrc,
		"slow": `let i = 0; while i < 4096 { i = i + 1; } ` + echoSrc,
	} {
		if err := gw.AddCodePackage(&wire.CodePackage{CodeID: id, Name: id, Version: "1", Source: src}); err != nil {
			t.Fatal(err)
		}
	}
}

func newFixture(t *testing.T, cfgMut func(*Config)) *fixture {
	t.Helper()
	kpOnce.Do(func() {
		k, err := pisec.GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
		kp = k
	})
	f := &fixture{
		net:   netsim.New(2),
		queue: &netsim.Queue{},
		store: rms.NewMemStore("dev-db", 0),
	}
	f.net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, netsim.Link{Latency: 50 * time.Millisecond})
	f.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{Latency: time.Millisecond})
	gw, err := gateway.New(gateway.Config{
		Addr:      "gw-d",
		KeyPair:   kp,
		Transport: f.net.Transport(netsim.ZoneWired),
		Spawn:     f.queue.Go,
		FuelSlice: fixtureFuel,
	})
	if err != nil {
		t.Fatal(err)
	}
	addEchoPackages(t, gw)
	f.gw = gw
	f.net.AddHost("gw-d", netsim.ZoneWired, gw.Handler())

	cfg := Config{
		Owner:     "test-dev",
		Transport: f.net.Transport(netsim.ZoneWireless),
		Store:     f.store,
		Codec:     compress.LZSS,
		Secure:    true,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	plat, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.SetGateways([]string{"gw-d"}); err != nil {
		t.Fatal(err)
	}
	f.plat = plat
	return f
}

func TestSubscribeDispatchCollect(t *testing.T) {
	f := newFixture(t, nil)
	ctx := context.Background()

	if err := f.plat.Subscribe(ctx, "gw-d", "slow"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	id, err := f.plat.Dispatch(ctx, "slow", map[string]mavm.Value{"k": mavm.Int(7)})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if _, err := f.plat.Collect(ctx, id); !errors.Is(err, ErrNotReady) {
		t.Fatalf("early collect: %v", err)
	}
	f.queue.Drain()
	rd, err := f.plat.Collect(ctx, id)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	echo, _ := rd.Get("echo")
	if echo.MapEntries()["k"].AsInt() != 7 {
		t.Fatalf("echo = %v", echo)
	}
	// Collecting again fails: the journey is forgotten.
	if _, err := f.plat.Collect(ctx, id); err == nil {
		t.Fatal("double collect succeeded")
	}
}

func TestDispatchRequiresSubscription(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.plat.Dispatch(context.Background(), "echo", nil); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnsubscribe(t *testing.T) {
	f := newFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if err := f.plat.Unsubscribe("echo"); err != nil {
		t.Fatal(err)
	}
	if len(f.plat.Subscriptions()) != 0 {
		t.Fatalf("subscriptions = %v", f.plat.Subscriptions())
	}
	if _, err := f.plat.Dispatch(ctx, "echo", nil); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("dispatch after unsubscribe: %v", err)
	}
	if err := f.plat.Unsubscribe("echo"); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("double unsubscribe: %v", err)
	}
}

func TestResubscribeReplaces(t *testing.T) {
	f := newFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	n1, _ := f.store.NumRecords()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	n2, _ := f.store.NumRecords()
	if n1 != n2 {
		t.Fatalf("resubscribe grew the store: %d -> %d", n1, n2)
	}
	// The refreshed secret still dispatches.
	if _, err := f.plat.Dispatch(ctx, "echo", nil); err != nil {
		t.Fatalf("dispatch after resubscribe: %v", err)
	}
}

func TestRetriesOnLoss(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.Retries = 5 })
	// 40% loss on the wireless uplink: with 5 retries the calls still
	// eventually succeed.
	f.net.SetLink(netsim.ZoneWireless, netsim.ZoneWired, netsim.Link{
		Latency: 10 * time.Millisecond,
		Loss:    0.4,
	})
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatalf("Subscribe under loss: %v", err)
	}
	if _, err := f.plat.Dispatch(ctx, "echo", nil); err != nil {
		t.Fatalf("Dispatch under loss: %v", err)
	}
}

func TestGatewayDownSurfacesError(t *testing.T) {
	f := newFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if err := f.net.SetDown("gw-d", true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.plat.Dispatch(ctx, "echo", nil); err == nil {
		t.Fatal("dispatch to downed gateway succeeded")
	}
	// Recovery.
	f.net.SetDown("gw-d", false) //nolint:errcheck
	if _, err := f.plat.Dispatch(ctx, "echo", nil); err != nil {
		t.Fatalf("dispatch after recovery: %v", err)
	}
}

func TestProbeAndSelect(t *testing.T) {
	f := newFixture(t, nil)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	probes, err := f.plat.ProbeGateways(ctx)
	if err != nil || len(probes) != 1 {
		t.Fatalf("probes = %v (%v)", probes, err)
	}
	if probes[0].RTT != 100*time.Millisecond {
		t.Fatalf("rtt = %v, want 100ms", probes[0].RTT)
	}
	addr, rtt, err := f.plat.SelectGateway(ctx)
	if err != nil || addr != "gw-d" || rtt <= 0 {
		t.Fatalf("select = %q %v %v", addr, rtt, err)
	}
}

func TestSelectAllFarWithoutCentral(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.RTTThreshold = time.Millisecond })
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	if _, _, err := f.plat.SelectGateway(ctx); !errors.Is(err, ErrAllGatewaysFar) {
		t.Fatalf("err = %v, want ErrAllGatewaysFar", err)
	}
}

func TestEmptyGatewayList(t *testing.T) {
	f := newFixture(t, nil)
	plat, err := NewPlatform(Config{
		Owner:     "fresh",
		Transport: f.net.Transport(netsim.ZoneWireless),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plat.ProbeGateways(context.Background()); !errors.Is(err, ErrNoGateways) {
		t.Fatalf("err = %v", err)
	}
}

func TestRefreshGateways(t *testing.T) {
	f := newFixture(t, nil)
	dir := gateway.NewDirectory("gw-d", "gw-x")
	f.net.AddHost("central-t", netsim.ZoneWired, dir.Handler())
	if err := f.plat.RefreshGateways(context.Background(), "central-t"); err != nil {
		t.Fatal(err)
	}
	if got := f.plat.Gateways(); len(got) != 2 {
		t.Fatalf("gateways = %v", got)
	}
	if err := f.plat.RefreshGateways(context.Background(), "nowhere"); err == nil {
		t.Fatal("refresh from unreachable central succeeded")
	}
}

func TestFootprintGrowsWithSubscriptions(t *testing.T) {
	f := newFixture(t, nil)
	before, err := f.plat.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.plat.Subscribe(context.Background(), "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	after, _ := f.plat.Footprint()
	if after <= before {
		t.Fatalf("footprint %d -> %d", before, after)
	}
}

func TestLoadSkipsCorruptRecords(t *testing.T) {
	f := newFixture(t, nil)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	// Poison the store with garbage and an unknown record type.
	f.store.Add([]byte("not a compressed frame"))                        //nolint:errcheck
	junk, _ := compress.Encode(compress.LZSS, []byte(`<mystery-type/>`)) //nolint:errcheck
	f.store.Add(junk)                                                    //nolint:errcheck

	plat2, err := NewPlatform(Config{
		Owner:     "test-dev",
		Transport: f.net.Transport(netsim.ZoneWireless),
		Store:     f.store,
		Secure:    true,
	})
	if err != nil {
		t.Fatalf("NewPlatform over dirty store: %v", err)
	}
	if subs := plat2.Subscriptions(); len(subs) != 1 || subs[0] != "echo" {
		t.Fatalf("subscriptions = %v", subs)
	}
}

func TestAgentStatusUnknown(t *testing.T) {
	f := newFixture(t, nil)
	if _, _, err := f.plat.AgentStatus(context.Background(), "ghost"); err == nil ||
		!strings.Contains(err.Error(), "unknown agent") {
		t.Fatalf("err = %v", err)
	}
}

func TestInsecureDispatch(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.Secure = false })
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", nil)
	if err != nil {
		t.Fatalf("insecure dispatch: %v", err)
	}
	f.queue.Drain()
	if _, err := f.plat.Collect(ctx, id); err != nil {
		t.Fatalf("collect: %v", err)
	}
}

func TestNewPlatformValidation(t *testing.T) {
	tr := netsim.New(1).Transport(netsim.ZoneWireless)
	if _, err := NewPlatform(Config{Transport: tr}); err == nil {
		t.Error("missing owner accepted")
	}
	if _, err := NewPlatform(Config{Owner: "x"}); err == nil {
		t.Error("missing transport accepted")
	}
}

// keepBodies retains the uploaded dispatch bodies themselves, not
// copies — as the benchmark's traced pass does.
type keepBodies struct {
	transport.RoundTripper
	bodies [][]byte
}

func (k *keepBodies) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if req.Path == "/pdagent/dispatch" {
		k.bodies = append(k.bodies, req.Body)
	}
	return k.RoundTripper.RoundTrip(ctx, addr, req)
}

// TestUploadsShareSessionNotBuffer: a platform's uploads are one sealed
// session (same wrapped key on the wire), yet each body stays intact
// after later uploads — a RoundTripper may keep req.Body.
func TestUploadsShareSessionNotBuffer(t *testing.T) {
	var keep *keepBodies
	f := newFixture(t, func(cfg *Config) {
		keep = &keepBodies{RoundTripper: cfg.Transport}
		cfg.Transport = keep
	})
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	memos := []string{strings.Repeat("long memo ", 200), "short", strings.Repeat("mid ", 40)}
	for _, m := range memos {
		if _, err := f.plat.Dispatch(ctx, "echo", map[string]mavm.Value{"memo": mavm.Str(m)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(keep.bodies) != len(memos) {
		t.Fatalf("kept %d bodies, want %d", len(keep.bodies), len(memos))
	}
	const wrappedAt, wrappedLen = 8, 128 // "PISEC1" + u16, RSA-1024 fixture key
	for i, body := range keep.bodies {
		pi, err := wire.Unpack(body, kp)
		if err != nil {
			t.Fatalf("kept body %d no longer unpacks: %v", i, err)
		}
		if got := pi.Params["memo"].AsStr(); got != memos[i] {
			t.Fatalf("kept body %d now carries a %d-byte memo, want %d", i, len(got), len(memos[i]))
		}
		if !bytes.Equal(body[wrappedAt:wrappedAt+wrappedLen], keep.bodies[0][wrappedAt:wrappedAt+wrappedLen]) {
			t.Fatalf("upload %d started a new sealed session", i)
		}
	}
}
