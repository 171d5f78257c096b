package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/compress"
	"pdagent/internal/kxml"
	"pdagent/internal/mas"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// fixture is a gateway on a simulated network with a serial queue.
type fixture struct {
	net   *netsim.Network
	queue *netsim.Queue
	gw    *Gateway
	kp    *pisec.KeyPair
	docs  rms.Store
	tr    transport.RoundTripper
}

var (
	testKPOnce sync.Once
	testKP     *pisec.KeyPair
)

func newFixture(t *testing.T) *fixture { return newFixtureCfg(t, nil) }

// newFixtureCfg builds the fixture with an optional config mutation
// (e.g. enabling the mailbox subsystem).
func newFixtureCfg(t *testing.T, mut func(*Config)) *fixture {
	t.Helper()
	testKPOnce.Do(func() {
		kp, err := pisec.GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
		testKP = kp
	})
	f := &fixture{
		net:   netsim.New(4),
		queue: &netsim.Queue{},
		kp:    testKP,
		docs:  rms.NewMemStore("docs", 0),
	}
	f.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{Latency: time.Millisecond})
	f.net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, netsim.Link{Latency: 10 * time.Millisecond})
	cfg := Config{
		Addr:      "gw-t",
		KeyPair:   f.kp,
		Transport: f.net.Transport(netsim.ZoneWired),
		Spawn:     f.queue.Go,
		FuelSlice: fixtureFuel,
		Peers:     []string{"gw-peer"},
		Documents: f.docs,
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	f.net.AddHost("gw-t", netsim.ZoneWired, gw.Handler())
	f.tr = f.net.Transport(netsim.ZoneWireless)
	return f
}

// fixtureFuel is the fixture gateway's FuelSlice. An admitted agent's
// first slice runs inside the dispatch: echoSrc finishes within it, so
// its result is stored before the dispatch answers; slowEchoSrc does
// not, so it is still travelling when the dispatch answers and the
// rest of its journey waits on the fixture's queue.
const fixtureFuel = 4096

const (
	echoSrc     = `deliver("echo", params());`
	slowEchoSrc = `let i = 0; while i < 4096 { i = i + 1; } deliver("echo", params());`
)

func (f *fixture) addEcho(t *testing.T) { f.addPackage(t, "echo", echoSrc) }

// addSlowEcho registers code "slow": an echo that suspends once (out of
// fuel) before it delivers.
func (f *fixture) addSlowEcho(t *testing.T) { f.addPackage(t, "slow", slowEchoSrc) }

func (f *fixture) addPackage(t *testing.T, codeID, src string) {
	t.Helper()
	err := f.gw.AddCodePackage(&wire.CodePackage{
		CodeID: codeID, Name: codeID, Version: "1", Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// addSite mounts a journal-less MAS host agents of this fixture can
// migrate to; its agent loops share the fixture's queue.
func (f *fixture) addSite(t *testing.T, addr string) *mas.Server {
	t.Helper()
	site, err := mas.NewServer(mas.Config{
		Addr: addr, Codec: atp.AgletsCodec{}, Transport: f.net.Transport(netsim.ZoneWired), Spawn: f.queue.Go,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.net.AddHost(addr, netsim.ZoneWired, site.Handler())
	return site
}

// subscribe performs the subscription handshake and returns the parsed
// subscription.
func (f *fixture) subscribe(t *testing.T, codeID, owner string) *wire.Subscription {
	t.Helper()
	req := &transport.Request{Path: "/pdagent/subscribe"}
	req.SetHeader("code-id", codeID)
	req.SetHeader("owner", owner)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsOK() {
		t.Fatalf("subscribe: %d %s", resp.Status, resp.Text())
	}
	sub, err := wire.ParseSubscription(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func (f *fixture) dispatchPI(t *testing.T, pi *wire.PackedInformation, sealed bool) *transport.Response {
	t.Helper()
	return f.dispatchBody(t, f.packPI(t, pi, sealed))
}

// packPI packs pi the way a device does, minting its nonce if it has
// none.
func (f *fixture) packPI(t *testing.T, pi *wire.PackedInformation, sealed bool) []byte {
	t.Helper()
	if pi.Nonce == "" {
		n, err := wire.NewNonce()
		if err != nil {
			t.Fatal(err)
		}
		pi.Nonce = n
	}
	var key *pisec.PublicKey
	if sealed {
		key = f.kp.Public()
	}
	body, err := wire.Pack(pi, compress.LZSS, key)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func (f *fixture) dispatchBody(t *testing.T, body []byte) *transport.Response {
	t.Helper()
	return upload(t, f, body, nil)
}

func TestCatalogAndSubscribe(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)

	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", &transport.Request{Path: "/pdagent/catalog"})
	if err != nil || !resp.IsOK() {
		t.Fatalf("catalog: %v %v", resp, err)
	}
	gwAddr, entries, err := wire.ParseCatalogue(resp.Body)
	if err != nil || gwAddr != "gw-t" || len(entries) != 1 || entries[0].CodeID != "echo" {
		t.Fatalf("catalogue = %q %+v (%v)", gwAddr, entries, err)
	}

	sub := f.subscribe(t, "echo", "dev-1")
	if sub.Package.Source != echoSrc || len(sub.Secret) == 0 || sub.Gateway != "gw-t" {
		t.Fatalf("subscription = %+v", sub)
	}
	if _, err := pisec.ParsePublicKey(sub.GatewayKey); err != nil {
		t.Fatalf("gateway key unusable: %v", err)
	}

	// Unknown package.
	req := &transport.Request{Path: "/pdagent/subscribe"}
	req.SetHeader("code-id", "nope")
	req.SetHeader("owner", "dev-1")
	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", req)
	if resp.Status != transport.StatusNotFound {
		t.Fatalf("unknown package: %d", resp.Status)
	}
	// Missing headers.
	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", &transport.Request{Path: "/pdagent/subscribe"})
	if resp.Status != transport.StatusBadRequest {
		t.Fatalf("missing headers: %d", resp.Status)
	}
	// A tenant this gateway has no account for, on a gateway configured
	// with none: refused, not silently billed to the default account.
	if _, resp := f.subscribeTenant(t, "echo", "dev-1", "acme", "s3"); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("unknown tenant: %d, want 401", resp.Status)
	}
}

func TestDispatchFlow(t *testing.T) {
	f := newFixture(t)
	f.addSlowEcho(t)
	sub := f.subscribe(t, "slow", "dev-1")

	pi := &wire.PackedInformation{
		CodeID:      "slow",
		DispatchKey: pisec.DispatchKey("slow", sub.Secret),
		Owner:       "dev-1",
		Source:      sub.Package.Source,
		Params:      map[string]mavm.Value{"greeting": mavm.Str("hello")},
	}
	resp := f.dispatchPI(t, pi, true)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	agentID := resp.Text()

	// Result not ready until the journey runs.
	rreq := &transport.Request{Path: "/pdagent/result"}
	rreq.SetHeader("agent", agentID)
	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", rreq)
	if resp.Status != transport.StatusConflict {
		t.Fatalf("early result: %d", resp.Status)
	}

	f.queue.Drain()

	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", rreq)
	if !resp.IsOK() {
		t.Fatalf("result: %d %s", resp.Status, resp.Text())
	}
	rd, err := wire.ParseResultDocument(resp.Body)
	if err != nil || !rd.OK() {
		t.Fatalf("result doc: %+v (%v)", rd, err)
	}
	echo, ok := rd.Get("echo")
	if !ok || echo.MapEntries()["greeting"].AsStr() != "hello" {
		t.Fatalf("echo = %v", echo)
	}

	// The File Directory holds both the request and the result document.
	if n, _ := f.docs.NumRecords(); n != 2 {
		t.Fatalf("documents = %d, want request + result", n)
	}
}

func TestDispatchRejectsBadKeys(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")

	base := wire.PackedInformation{
		CodeID: "echo",
		Owner:  "dev-1",
		Source: sub.Package.Source,
	}

	// Wrong dispatch key.
	pi := base
	pi.DispatchKey = strings.Repeat("0", 32)
	if resp := f.dispatchPI(t, &pi, true); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("forged key: %d %s", resp.Status, resp.Text())
	}
	// Right key, wrong owner (never subscribed).
	pi = base
	pi.Owner = "stranger"
	pi.DispatchKey = pisec.DispatchKey("echo", sub.Secret)
	if resp := f.dispatchPI(t, &pi, true); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("stranger: %d", resp.Status)
	}
	// Garbage body.
	resp, _ := f.tr.RoundTrip(context.Background(), "gw-t", &transport.Request{
		Path: "/pdagent/dispatch", Body: []byte("garbage"),
	})
	if resp.Status != transport.StatusBadRequest {
		t.Fatalf("garbage: %d", resp.Status)
	}
	// Valid key but source fails to compile.
	pi = base
	pi.DispatchKey = pisec.DispatchKey("echo", sub.Secret)
	pi.Source = "let x = ;"
	if resp := f.dispatchPI(t, &pi, true); resp.Status != transport.StatusBadRequest {
		t.Fatalf("bad source: %d", resp.Status)
	}
}

func TestDispatchUnsealedAccepted(t *testing.T) {
	// The gateway accepts plain (compressed-only) PIs — the ablation
	// configuration.
	f := newFixture(t)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Source:      sub.Package.Source,
	}
	if resp := f.dispatchPI(t, pi, false); !resp.IsOK() {
		t.Fatalf("unsealed dispatch: %d %s", resp.Status, resp.Text())
	}
}

func TestReplayedPIRejected(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	nonce, err := wire.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Nonce:       nonce,
		Source:      sub.Package.Source,
	}
	body, err := wire.Pack(pi, compress.LZSS, f.kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	// First upload succeeds.
	first := f.dispatchBody(t, body)
	if !first.IsOK() {
		t.Fatalf("first dispatch: %d %s", first.Status, first.Text())
	}
	agentID := first.Text()
	// The captured body replayed verbatim never creates a second
	// agent: the gateway answers idempotently with the original agent
	// id (a device retrying an upload whose response was lost must not
	// wedge, and a replaying attacker re-executes nothing).
	resp := f.dispatchBody(t, body)
	if !resp.IsOK() || resp.Text() != agentID {
		t.Fatalf("replay: %d %q, want idempotent %q", resp.Status, resp.Text(), agentID)
	}
	// Same for a re-sealed copy with the same nonce.
	body2, _ := wire.Pack(pi, compress.LZSS, f.kp.Public())
	if resp := f.dispatchBody(t, body2); !resp.IsOK() || resp.Text() != agentID {
		t.Fatalf("re-sealed replay: %d %q, want idempotent %q", resp.Status, resp.Text(), agentID)
	}
	// Exactly one agent exists for the nonce.
	if n := f.gw.Registry().NumAgents(); n != 1 {
		t.Fatalf("replays created agents: %d, want 1", n)
	}
	// A fresh nonce goes through as a new agent.
	pi.Nonce, _ = wire.NewNonce()
	if resp := f.dispatchPI(t, pi, true); !resp.IsOK() || resp.Text() == agentID {
		t.Fatalf("fresh nonce: %d %s", resp.Status, resp.Text())
	}
	// A PI without any nonce is refused outright.
	noNonce := *pi
	noNonce.Nonce = ""
	raw, _ := wire.Pack(&noNonce, compress.LZSS, f.kp.Public())
	if resp := f.dispatchBody(t, raw); resp.Status != transport.StatusBadRequest ||
		!strings.Contains(resp.Text(), "nonce") {
		t.Fatalf("missing nonce: %d %s", resp.Status, resp.Text())
	}
}

func TestNonceWindowBounded(t *testing.T) {
	w := &nonceWindow{seen: map[string]string{}}
	for i := 0; i < nonceWindowSize+100; i++ {
		if !w.remember(fmt.Sprint("n-", i)) {
			t.Fatalf("fresh nonce %d rejected", i)
		}
	}
	if len(w.seen) != nonceWindowSize || len(w.order) != nonceWindowSize {
		t.Fatalf("window size = %d/%d", len(w.seen), len(w.order))
	}
	// The oldest nonce was evicted and would (unfortunately but
	// boundedly) be accepted again; the newest is still remembered.
	if w.remember(fmt.Sprint("n-", nonceWindowSize+99)) {
		t.Fatal("recent nonce accepted twice")
	}
}

func TestResultUnknownAgent(t *testing.T) {
	f := newFixture(t)
	req := &transport.Request{Path: "/pdagent/result"}
	req.SetHeader("agent", "ghost")
	resp, _ := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if resp.Status != transport.StatusNotFound {
		t.Fatalf("unknown agent: %d", resp.Status)
	}
	sreq := &transport.Request{Path: "/pdagent/status"}
	sreq.SetHeader("agent", "ghost")
	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", sreq)
	if resp.Status != transport.StatusNotFound {
		t.Fatalf("unknown status: %d", resp.Status)
	}
	mreq := &transport.Request{Path: "/pdagent/manage/dispose"}
	mreq.SetHeader("agent", "ghost")
	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", mreq)
	if resp.Status != transport.StatusNotFound {
		t.Fatalf("unknown manage: %d", resp.Status)
	}
}

func TestGatewaysEndpoint(t *testing.T) {
	f := newFixture(t)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", &transport.Request{Path: "/pdagent/gateways"})
	if err != nil || !resp.IsOK() {
		t.Fatalf("gateways: %v %v", resp, err)
	}
	gl, err := wire.ParseGatewayList(resp.Body)
	if err != nil || len(gl.Addresses) != 2 || gl.Addresses[0] != "gw-t" || gl.Addresses[1] != "gw-peer" {
		t.Fatalf("list = %+v (%v)", gl, err)
	}
}

func TestAddCodePackageValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.gw.AddCodePackage(&wire.CodePackage{CodeID: "x"}); err == nil {
		t.Error("package without source accepted")
	}
	if err := f.gw.AddCodePackage(&wire.CodePackage{CodeID: "x", Source: "let bad = ;"}); err == nil {
		t.Error("non-compiling package accepted")
	}
}

func TestNewValidation(t *testing.T) {
	tr := netsim.New(1).Transport(netsim.ZoneWired)
	kp := testKP
	if kp == nil {
		var err error
		kp, err = pisec.GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(Config{KeyPair: kp, Transport: tr}); err == nil {
		t.Error("missing addr accepted")
	}
	if _, err := New(Config{Addr: "g", Transport: tr}); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := New(Config{Addr: "g", KeyPair: kp}); err == nil {
		t.Error("missing transport accepted")
	}
	if _, err := New(Config{Addr: "g", KeyPair: kp, Transport: tr, Flavour: "jade"}); err == nil {
		t.Error("unknown flavour accepted")
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory("gw-1")
	d.Add("gw-2")
	d.Add("gw-2") // idempotent
	net := netsim.New(1)
	net.AddHost("central", netsim.ZoneWired, d.Handler())
	tr := net.Transport(netsim.ZoneWireless)

	resp, err := tr.RoundTrip(context.Background(), "central", &transport.Request{Path: "/pdagent/gateways"})
	if err != nil || !resp.IsOK() {
		t.Fatalf("gateways: %v %v", resp, err)
	}
	gl, err := wire.ParseGatewayList(resp.Body)
	if err != nil || len(gl.Addresses) != 2 {
		t.Fatalf("list = %+v (%v)", gl, err)
	}
	d.Set([]string{"only"})
	resp, _ = tr.RoundTrip(context.Background(), "central", &transport.Request{Path: "/pdagent/gateways"})
	gl, _ = wire.ParseGatewayList(resp.Body)
	if len(gl.Addresses) != 1 || gl.Addresses[0] != "only" {
		t.Fatalf("after Set: %+v", gl)
	}
	// Ping for probing.
	resp, _ = tr.RoundTrip(context.Background(), "central", &transport.Request{Path: "/pdagent/ping"})
	if !resp.IsOK() {
		t.Fatalf("ping: %d", resp.Status)
	}
}

func TestFailedJourneyStoredAsFailed(t *testing.T) {
	f := newFixture(t)
	err := f.gw.AddCodePackage(&wire.CodePackage{
		CodeID: "crash", Name: "Crash", Version: "1",
		Source: `let x = 1 / 0;`,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := f.subscribe(t, "crash", "dev-1")
	pi := &wire.PackedInformation{
		CodeID:      "crash",
		DispatchKey: pisec.DispatchKey("crash", sub.Secret),
		Owner:       "dev-1",
		Source:      sub.Package.Source,
	}
	resp := f.dispatchPI(t, pi, true)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %s", resp.Text())
	}
	agentID := resp.Text()
	f.queue.Drain()

	rreq := &transport.Request{Path: "/pdagent/result"}
	rreq.SetHeader("agent", agentID)
	resp, _ = f.tr.RoundTrip(context.Background(), "gw-t", rreq)
	if !resp.IsOK() {
		t.Fatalf("result: %d %s", resp.Status, resp.Text())
	}
	rd, err := wire.ParseResultDocument(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Status != "failed" || !strings.Contains(rd.Error, "division by zero") {
		t.Fatalf("rd = %+v", rd)
	}
}

func TestStatusXMLWellFormed(t *testing.T) {
	f := newFixture(t)
	f.addSlowEcho(t)
	sub := f.subscribe(t, "slow", "dev-1")
	pi := &wire.PackedInformation{
		CodeID:      "slow",
		DispatchKey: pisec.DispatchKey("slow", sub.Secret),
		Owner:       "dev-1",
		Source:      sub.Package.Source,
	}
	agentID := f.dispatchPI(t, pi, true).Text()

	sreq := &transport.Request{Path: "/pdagent/status"}
	sreq.SetHeader("agent", agentID)
	resp, _ := f.tr.RoundTrip(context.Background(), "gw-t", sreq)
	if !resp.IsOK() {
		t.Fatalf("status: %d", resp.Status)
	}
	if resp.GetHeader("agent-state") != "travelling" {
		t.Fatalf("agent-state = %q", resp.GetHeader("agent-state"))
	}
	if _, err := kxml.ParseBytes(resp.Body); err != nil {
		t.Fatalf("status body not XML: %v", err)
	}
}

// untappedStore hides its store's commit tap: an rms.Store that is not
// rms.Tapped.
type untappedStore struct{ rms.Store }

// TestNewRefusesReplOverUntappedStore: a member asked to replicate a
// store it cannot tap fails at construction instead of running with no
// standby copy and no error.
func TestNewRefusesReplOverUntappedStore(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"journal": func(c *Config) { c.Journal = untappedStore{rms.NewMemStore("j", 0)} },
		"mailbox": func(c *Config) { c.Mailbox = &MailboxConfig{Store: untappedStore{rms.NewMemStore("m", 0)}} },
	} {
		cfg := Config{
			Addr:      "gw-t",
			KeyPair:   testKeyPair(t),
			Transport: netsim.New(4).Transport(netsim.ZoneWired),
			Repl:      repl.NewPeer(repl.Config{Self: "gw-t"}),
		}
		mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "no commit tap") {
			t.Errorf("%s: New with Repl over an untapped store = %v, want a no-commit-tap error", name, err)
		}
	}
}
