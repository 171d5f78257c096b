package device

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
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

// keyFieldLen reads a sealed body's key-field length: the modulus size
// (128 for the fixture's RSA-1024 key) for the wrapped key, 16 for a
// session id.
func keyFieldLen(body []byte) int { return int(binary.BigEndian.Uint16(body[len("PISEC1"):])) }

// TestUploadsShareSessionNotBuffer: a platform's uploads are one sealed
// session — the first carries the wrapped key, the rest its id — yet
// each body stays intact after later uploads: a RoundTripper may keep
// req.Body.
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
	const keyAt, wrapLen, idLen = 8, 128, 16 // "PISEC1" + u16, RSA-1024 fixture key, SHA-256 prefix
	id := sha256.Sum256(keep.bodies[0][keyAt : keyAt+wrapLen])
	for i, body := range keep.bodies {
		pi, err := wire.Unpack(body, kp)
		if err != nil {
			t.Fatalf("kept body %d no longer unpacks: %v", i, err)
		}
		if got := pi.Params["memo"].AsStr(); got != memos[i] {
			t.Fatalf("kept body %d now carries a %d-byte memo, want %d", i, len(got), len(memos[i]))
		}
		switch {
		case i == 0 && keyFieldLen(body) != wrapLen:
			t.Fatalf("the first upload carries a %d-byte key field, want the wrap", keyFieldLen(body))
		case i > 0 && (keyFieldLen(body) != idLen || !bytes.Equal(body[keyAt:keyAt+idLen], id[:idLen])):
			t.Fatalf("upload %d does not name the first upload's session", i)
		}
	}
}

// gateRT holds every dispatch until n have been sent, so n uploads are
// sealed before the gateway has answered any of them, and records each
// dispatch body and answer status.
type gateRT struct {
	transport.RoundTripper
	n      int
	open   chan struct{}
	mu     sync.Mutex
	bodies [][]byte
	status []int
}

func (g *gateRT) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if req.Path != "/pdagent/dispatch" {
		return g.RoundTripper.RoundTrip(ctx, addr, req)
	}
	g.mu.Lock()
	g.bodies = append(g.bodies, req.Body)
	if len(g.bodies) == g.n {
		close(g.open)
	}
	g.mu.Unlock()
	<-g.open
	resp, err := g.RoundTripper.RoundTrip(ctx, addr, req)
	if resp != nil {
		g.mu.Lock()
		g.status = append(g.status, resp.Status)
		g.mu.Unlock()
	}
	return resp, err
}

// handlerRT serves requests straight from a handler: unlike the netsim
// fixture transport, safe for concurrent callers.
type handlerRT struct{ h transport.Handler }

func (r handlerRT) RoundTrip(ctx context.Context, _ string, req *transport.Request) (*transport.Response, error) {
	return r.h.Serve(ctx, req), nil
}

// TestSessionIdAfterFirstAccept: a device's first sealed uploads carry
// the wrapped key and, once the gateway has accepted one, every later
// upload the 16-byte session id — a body exactly modulus − 16 bytes
// shorter for the same plaintext. Uploads sealed before the first
// answer all carry the wrap, and none is refused.
func TestSessionIdAfterFirstAccept(t *testing.T) {
	f := newFixture(t, nil)
	const racers = 8
	gate := &gateRT{RoundTripper: handlerRT{f.gw.Handler()}, n: racers, open: make(chan struct{})}
	dev, err := NewPlatform(Config{Owner: "racer", Transport: gate, Codec: compress.LZSS, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := dev.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := dev.Dispatch(ctx, "echo", map[string]mavm.Value{"i": mavm.Int(int64(i))}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := dev.Dispatch(ctx, "echo", map[string]mavm.Value{"i": mavm.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(gate.bodies) != racers+2 {
		t.Fatalf("%d uploads, want %d: something was re-sent", len(gate.bodies), racers+2)
	}
	for i, st := range gate.status {
		if st != transport.StatusOK {
			t.Fatalf("answer %d: %d", i, st)
		}
	}
	overhead := func(body []byte) int {
		t.Helper()
		pt, err := pisec.AppendOpen(nil, kp, body)
		if err != nil {
			t.Fatal(err)
		}
		return len(body) - len(pt)
	}
	for i, body := range gate.bodies {
		want := 128
		if i >= racers {
			want = 16
		}
		if keyFieldLen(body) != want {
			t.Fatalf("upload %d carries a %d-byte key field, want %d", i, keyFieldLen(body), want)
		}
	}
	if d := overhead(gate.bodies[0]) - overhead(gate.bodies[racers]); d != 128-16 {
		t.Fatalf("the id envelope is %d bytes smaller, want %d", d, 128-16)
	}
}

// restartGateway replaces the fixture's gateway with a new process over
// kp at the same address, serving src as "echo". Nothing of the old
// process's memory survives — its unseal table included — except the
// device's subscription, carried over as a persisted registry would.
func (f *fixture) restartGateway(t *testing.T, kp *pisec.KeyPair, src string) {
	t.Helper()
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
	if err := gw.AddCodePackage(&wire.CodePackage{CodeID: "echo", Name: "echo", Version: "1", Source: src}); err != nil {
		t.Fatal(err)
	}
	if secret, tenantID, ok := f.gw.Registry().SecretOwner("echo", "test-dev"); ok {
		gw.Registry().SetSecret("echo", "test-dev", secret, tenantID)
	}
	f.gw.Close()
	f.gw = gw
	f.net.AddHost("gw-d", netsim.ZoneWired, gw.Handler())
}

// TestGatewayRestartFallsBackOnce: a gateway back over the same private
// key with an empty unseal table answers the device's session id 412;
// the device re-sends once with the wrapped key and names the session by
// id again from the next upload. When the code hash is stale as well,
// that same single re-send carries the code too.
func TestGatewayRestartFallsBackOnce(t *testing.T) {
	var keep *keepBodies
	f := newFixture(t, func(cfg *Config) {
		keep = &keepBodies{RoundTripper: cfg.Transport}
		cfg.Transport = keep
	})
	priv, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f.restartGateway(t, pisec.KeyPairFromRSA(priv), echoSrc)
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	dispatch := func(uploads int, keyLens ...int) string {
		t.Helper()
		n := len(keep.bodies)
		id, err := f.plat.Dispatch(ctx, "echo", map[string]mavm.Value{"k": mavm.Int(7)})
		if err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
		got := keep.bodies[n:]
		if len(got) != uploads {
			t.Fatalf("%d uploads, want %d", len(got), uploads)
		}
		for i, body := range got {
			if keyFieldLen(body) != keyLens[i] {
				t.Fatalf("upload %d of %d carries a %d-byte key field, want %d", i+1, uploads, keyFieldLen(body), keyLens[i])
			}
		}
		return id
	}
	dispatch(1, 128)
	dispatch(1, 16)

	f.restartGateway(t, pisec.KeyPairFromRSA(priv), echoSrc)
	dispatch(2, 16, 128)
	id := dispatch(1, 16)
	if rd, err := f.plat.Collect(ctx, id); err != nil || !rd.OK() {
		t.Fatalf("collect after the fallback: %+v, %v", rd, err)
	}

	restarted := pisec.KeyPairFromRSA(priv)
	f.restartGateway(t, restarted, `deliver("v", 2);`)
	dispatch(2, 16, 128)
	resent, err := wire.Unpack(keep.bodies[len(keep.bodies)-1], restarted)
	if err != nil {
		t.Fatal(err)
	}
	if resent.Source != echoSrc || resent.CodeHash != "" {
		t.Fatalf("the re-send carries source %q and hash %q, want the subscribed code", resent.Source, resent.CodeHash)
	}
	if full, _, unknown, _ := restarted.UnsealStats(); full != 1 || unknown != 1 {
		t.Fatalf("restarted gateway: %d full unseal(s), %d unknown id(s); want 1 and 1", full, unknown)
	}
}

// TestReRegisteredPackageFallsBackOnce: an upload names the subscribed
// code by hash; after the gateway re-registers the package that hash is
// stale, the gateway answers 412, and the device re-sends the same
// upload (same nonce) once, carrying the code. The journey completes.
func TestReRegisteredPackageFallsBackOnce(t *testing.T) {
	var keep *keepBodies
	f := newFixture(t, func(cfg *Config) {
		keep = &keepBodies{RoundTripper: cfg.Transport}
		cfg.Transport = keep
	})
	ctx := context.Background()
	if err := f.plat.Subscribe(ctx, "gw-d", "echo"); err != nil {
		t.Fatal(err)
	}
	if err := f.gw.AddCodePackage(&wire.CodePackage{CodeID: "echo", Name: "echo", Version: "2", Source: `deliver("v", 2);`}); err != nil {
		t.Fatal(err)
	}
	id, err := f.plat.Dispatch(ctx, "echo", map[string]mavm.Value{"k": mavm.Int(7)})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if len(keep.bodies) != 2 {
		t.Fatalf("%d uploads, want the reference and one fallback", len(keep.bodies))
	}
	ref, err := wire.Unpack(keep.bodies[0], kp)
	if err != nil {
		t.Fatal(err)
	}
	full, err := wire.Unpack(keep.bodies[1], kp)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Source != "" || ref.CodeHash != wire.CodeHash(echoSrc) || full.Source != echoSrc || full.Nonce != ref.Nonce {
		t.Fatalf("uploads: reference %+v, fallback %+v", ref, full)
	}
	rd, err := f.plat.Collect(ctx, id)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if echo, ok := rd.Get("echo"); !rd.OK() || !ok || echo.MapEntries()["k"].AsInt() != 7 {
		t.Fatalf("result %+v", rd)
	}
}
