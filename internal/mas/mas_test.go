package mas

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/kxml"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

// simWorld wires a home MAS plus bank hosts over a simulated network
// with a deterministic serial queue.
type simWorld struct {
	net     *netsim.Network
	queue   *netsim.Queue
	home    *Server
	servers map[string]*Server
	banks   map[string]*services.Bank

	// hook, when set, carries every request a server sends; next is
	// the network.
	hook func(ctx context.Context, from, to string, req *transport.Request, next transport.RoundTripper) (*transport.Response, error)

	mu       sync.Mutex
	arrivals []*Arrival
}

// viaHook is a server's transport: the network, through simWorld.hook.
type viaHook struct {
	w    *simWorld
	from string
	next transport.RoundTripper
}

func (v viaHook) RoundTrip(ctx context.Context, to string, req *transport.Request) (*transport.Response, error) {
	if v.w.hook != nil {
		return v.w.hook(ctx, v.from, to, req, v.next)
	}
	return v.next.RoundTrip(ctx, to, req)
}

// newSimWorld creates a world with the given host flavours (addr ->
// flavour). "gw-0" is always created as the home server (aglets).
func newSimWorld(t *testing.T, hosts map[string]string) *simWorld {
	t.Helper()
	w := &simWorld{
		net:     netsim.New(11),
		queue:   &netsim.Queue{},
		servers: map[string]*Server{},
		banks:   map[string]*services.Bank{},
	}
	w.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{Latency: 10 * time.Millisecond})

	mk := func(addr, flavour string, reg *services.Registry, home bool) *Server {
		codec, err := atp.ByName(flavour)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Addr:      addr,
			Codec:     codec,
			Transport: viaHook{w, addr, w.net.Transport(netsim.ZoneWired)},
			Services:  reg,
			Spawn:     w.queue.Go,
		}
		if home {
			cfg.OnAgentHome = func(_ context.Context, a *Arrival) error {
				w.mu.Lock()
				w.arrivals = append(w.arrivals, a)
				w.mu.Unlock()
				return nil
			}
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.net.AddHost(addr, netsim.ZoneWired, srv.Handler())
		w.servers[addr] = srv
		return srv
	}

	w.home = mk("gw-0", "aglets", services.NewRegistry(), true)
	for addr, flavour := range hosts {
		bank := services.NewBank(addr, map[string]int64{"alice": 1000, "bob": 100})
		reg := services.NewRegistry()
		reg.Register(bank.Services()...)
		w.banks[addr] = bank
		mk(addr, flavour, reg, false)
	}
	return w
}

// dispatch compiles src and admits it at the home server, then drains
// the queue to run the whole journey.
func (w *simWorld) dispatch(t *testing.T, src string, params map[string]mavm.Value) *Arrival {
	t.Helper()
	prog, err := mascript.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	vm, err := mavm.New(prog, "ag-1", params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	if err := w.home.AdmitAgent(ctx, vm, "code-1", "device-1", tenant.DefaultID, "gw-0"); err != nil {
		t.Fatal(err)
	}
	w.queue.Drain()
	return w.lastArrival()
}

func (w *simWorld) lastArrival() *Arrival {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.arrivals) == 0 {
		return nil
	}
	return w.arrivals[len(w.arrivals)-1]
}

// retryParked runs n RetryParked rounds on every server, draining the
// queue after each, and returns the last arrival home.
func (w *simWorld) retryParked(n int) *Arrival {
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	addrs := make([]string, 0, len(w.servers))
	for addr := range w.servers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for i := 0; i < n; i++ {
		for _, addr := range addrs {
			w.servers[addr].RetryParked(ctx)
		}
		w.queue.Drain()
	}
	return w.lastArrival()
}

// status reads the /atp/status document of agent id at addr.
func (w *simWorld) status(t *testing.T, addr, id string) []byte {
	t.Helper()
	req := &transport.Request{Path: "/atp/status"}
	req.SetHeader("agent", id)
	resp, err := w.net.Transport(netsim.ZoneWired).RoundTrip(context.Background(), addr, req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("status of %s at %s: %v %v", id, addr, resp, err)
	}
	return resp.Body
}

func listParam(hosts ...string) mavm.Value {
	items := make([]mavm.Value, len(hosts))
	for i, h := range hosts {
		items[i] = mavm.Str(h)
	}
	return mavm.NewList(items...)
}

const bankTourSrc = `
	let receipts = [];
	for b in param("banks") {
		migrate(b);
		let r = service("bank.transfer", "alice", "bob", 50);
		push(receipts, r["txid"]);
	}
	migrate(home());
	deliver("receipts", receipts);
	deliver("hops", hops());
`

func TestJourneyAcrossMixedFlavours(t *testing.T) {
	w := newSimWorld(t, map[string]string{
		"bank-a": "aglets",
		"bank-b": "voyager", // different MAS brand on purpose
	})
	arrival := w.dispatch(t, bankTourSrc, map[string]mavm.Value{
		"banks": listParam("bank-a", "bank-b"),
	})
	if arrival == nil {
		t.Fatal("agent never came home")
	}
	if arrival.Kind != KindDone {
		t.Fatalf("arrival kind = %s (err %s)", arrival.Kind, arrival.VM.FailMsg())
	}
	res := map[string]mavm.Value{}
	for _, r := range arrival.VM.Results {
		res[r.Key] = r.Value
	}
	receipts := res["receipts"].ListItems()
	if len(receipts) != 2 {
		t.Fatalf("receipts = %v", res["receipts"])
	}
	if !strings.HasPrefix(receipts[0].AsStr(), "bank-a-tx-") ||
		!strings.HasPrefix(receipts[1].AsStr(), "bank-b-tx-") {
		t.Fatalf("receipts = %v", res["receipts"])
	}
	if res["hops"].AsInt() != 3 {
		t.Fatalf("hops = %v", res["hops"])
	}
	// The transfers really happened at both banks.
	for _, b := range []string{"bank-a", "bank-b"} {
		if bal, _ := w.banks[b].Balance("alice"); bal != 950 {
			t.Errorf("%s alice = %d", b, bal)
		}
	}
	// The journey consumed virtual time but no real sleeping happened.
	if w.net.Stats().Messages == 0 {
		t.Fatal("no simulated messages recorded")
	}
}

func TestAgentFailureReturnsHome(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	arrival := w.dispatch(t, `
		migrate("bank-a");
		let r = service("no.such.service");
	`, nil)
	if arrival == nil {
		t.Fatal("failure never reported home")
	}
	if arrival.Kind != KindFailed {
		t.Fatalf("kind = %s", arrival.Kind)
	}
	if !strings.Contains(arrival.VM.FailMsg(), "no.such.service") {
		t.Fatalf("FailMsg = %q", arrival.VM.FailMsg())
	}
}

func TestCompletionAwayFromHomeAutoShipsHome(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "voyager"})
	// Agent "forgets" to migrate home; the MAS must ship results back
	// anyway.
	arrival := w.dispatch(t, `
		migrate("bank-a");
		deliver("where", here());
	`, nil)
	if arrival == nil {
		t.Fatal("results stranded at remote host")
	}
	if arrival.Kind != KindDone {
		t.Fatalf("kind = %s", arrival.Kind)
	}
	if arrival.VM.Results[0].Value.AsStr() != "bank-a" {
		t.Fatalf("results = %v", arrival.VM.Results)
	}
}

// TestMigrateToUnknownHostFailsHome: the hop to a host that never
// answers parks at bank-a, and is failed home once its retries pass
// maxParkedRounds.
func TestMigrateToUnknownHostFailsHome(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	w.dispatch(t, `
		migrate("bank-a");
		migrate("ghost-host");
		deliver("never", 1);
	`, nil)
	arrival := w.retryParked(maxParkedRounds)
	if arrival == nil {
		t.Fatal("agent stranded silently")
	}
	if arrival.Kind != KindFailed {
		t.Fatalf("kind = %s", arrival.Kind)
	}
}

// TestFirstHopUnreachableDeliversFailureLocally: a first hop that never
// leaves home parks there, and is delivered home as failed once its
// retries pass maxParkedRounds.
func TestFirstHopUnreachableDeliversFailureLocally(t *testing.T) {
	w := newSimWorld(t, nil)
	w.dispatch(t, `migrate("nowhere"); deliver("x", 1);`, nil)
	arrival := w.retryParked(maxParkedRounds)
	if arrival == nil {
		t.Fatal("no failure delivered")
	}
	if arrival.Kind != KindFailed {
		t.Fatalf("kind = %s", arrival.Kind)
	}
}

func TestTransferHandlerValidation(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	ctx := context.Background()
	tr := w.net.Transport(netsim.ZoneWired)

	send := func(body []byte, kind string) *transport.Response {
		req := &transport.Request{Path: "/atp/transfer", Body: body}
		req.SetHeader("kind", kind)
		resp, err := tr.RoundTrip(ctx, "bank-a", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send([]byte("garbage"), KindMigrate); resp.Status != transport.StatusBadRequest {
		t.Fatalf("garbage: %d", resp.Status)
	}

	// Build a legitimate migrating image targeting a DIFFERENT host.
	prog, _ := mascript.Compile(`migrate("bank-z"); deliver("x", 1);`)
	vm, _ := mavm.New(prog, "ag-v", nil)
	if _, err := vm.Run(dummyHost{}, mavm.DefaultFuel); err != nil {
		t.Fatal(err)
	}
	pb, _ := mavm.MarshalProgram(prog)
	sb, _ := mavm.MarshalState(vm)
	im := &atp.Image{AgentID: "ag-v", Home: "gw-0", Program: pb, State: sb}
	body, _ := atp.AgletsCodec{}.Encode(im)
	if resp := send(body, KindMigrate); resp.Status != transport.StatusBadRequest ||
		!strings.Contains(resp.Text(), "targeted") {
		t.Fatalf("wrong target: %d %s", resp.Status, resp.Text())
	}

	// Done delivery at a host that is not the image's home.
	if resp := send(body, KindDone); resp.Status != transport.StatusBadRequest {
		t.Fatalf("done at wrong home: %d", resp.Status)
	}

	// Unknown kind.
	if resp := send(body, "teleport"); resp.Status != transport.StatusBadRequest {
		t.Fatalf("unknown kind: %d", resp.Status)
	}

	// ID mismatch between envelope and state.
	im2 := &atp.Image{AgentID: "other-id", Home: "gw-0", Program: pb, State: sb}
	body2, _ := atp.AgletsCodec{}.Encode(im2)
	if resp := send(body2, KindMigrate); resp.Status != transport.StatusBadRequest ||
		!strings.Contains(resp.Text(), "mismatch") {
		t.Fatalf("id mismatch: %d %s", resp.Status, resp.Text())
	}
}

// dummyHost satisfies mavm.Host for constructing migrating snapshots.
type dummyHost struct{}

func (dummyHost) HostName() string { return "test" }
func (dummyHost) HomeAddr() string { return "gw-0" }
func (dummyHost) CallService(string, []mavm.Value) (mavm.Value, error) {
	return mavm.Nil(), fmt.Errorf("no services")
}
func (dummyHost) Log(string, string) {}

func TestHelloAndPing(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "voyager"})
	tr := w.net.Transport(netsim.ZoneWired)
	resp, err := tr.RoundTrip(context.Background(), "bank-a", &transport.Request{Path: "/atp/hello"})
	if err != nil || !resp.IsOK() {
		t.Fatalf("hello: %v %v", resp, err)
	}
	if resp.GetHeader("flavour") != "voyager" {
		t.Fatalf("flavour header = %q", resp.GetHeader("flavour"))
	}
	root, err := kxml.ParseBytes(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if root.AttrDefault("flavour", "") != "voyager" {
		t.Fatalf("hello body = %s", resp.Body)
	}
	if len(root.FindAll("service")) == 0 {
		t.Fatal("hello lists no services")
	}

	resp, err = tr.RoundTrip(context.Background(), "bank-a", &transport.Request{Path: "/atp/ping"})
	if err != nil || !resp.IsOK() || len(resp.Body) != 1 {
		t.Fatalf("ping: %v %v", resp, err)
	}
}

func TestStatusTracksJourney(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	w.dispatch(t, bankTourSrc, map[string]mavm.Value{"banks": listParam("bank-a")})

	// After the journey, home knows the agent departed and bank-a knows
	// it departed back home; home then received delivery.
	tr := w.net.Transport(netsim.ZoneWired)
	req := &transport.Request{Path: "/atp/status"}
	req.SetHeader("agent", "ag-1")
	resp, err := tr.RoundTrip(context.Background(), "bank-a", req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("status: %v %v", resp, err)
	}
	st, err := kxml.ParseBytes(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if st.AttrDefault("state", "") != string(StateDeparted) {
		t.Fatalf("bank-a state = %s", resp.Body)
	}
	if st.AttrDefault("moved-to", "") != "gw-0" {
		t.Fatalf("moved-to = %s", resp.Body)
	}

	// Unknown agent.
	req2 := &transport.Request{Path: "/atp/status"}
	req2.SetHeader("agent", "nope")
	resp, _ = tr.RoundTrip(context.Background(), "bank-a", req2)
	if resp.Status != transport.StatusNotFound {
		t.Fatalf("unknown agent status = %d", resp.Status)
	}

	// Agents listing includes ag-1.
	resp, _ = tr.RoundTrip(context.Background(), "bank-a", &transport.Request{Path: "/atp/agents"})
	if !strings.Contains(resp.Text(), "ag-1") {
		t.Fatalf("agents = %s", resp.Text())
	}
}

func TestLogsEndpoint(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	w.dispatch(t, `migrate("bank-a"); log("checking in"); migrate(home());`, nil)
	tr := w.net.Transport(netsim.ZoneWired)
	resp, err := tr.RoundTrip(context.Background(), "bank-a", &transport.Request{Path: "/atp/logs"})
	if err != nil || !resp.IsOK() {
		t.Fatalf("logs: %v %v", resp, err)
	}
	if !strings.Contains(resp.Text(), "checking in") {
		t.Fatalf("logs = %s", resp.Text())
	}
}

// --- live-mode tests (real goroutines, management operations) ----------

// liveWorld uses goroutine spawning and tiny fuel slices so management
// requests interleave with execution.
func newLiveWorld(t *testing.T) *simWorld {
	t.Helper()
	w := &simWorld{
		net:     netsim.New(13),
		servers: map[string]*Server{},
		banks:   map[string]*services.Bank{},
	}
	w.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{})
	mkLive := func(addr string, home bool) *Server {
		cfg := Config{
			Addr:      addr,
			Codec:     atp.AgletsCodec{},
			Transport: w.net.Transport(netsim.ZoneWired),
			Services:  services.NewRegistry(),
			FuelSlice: 200, // small slices so control ops interleave
		}
		if home {
			cfg.OnAgentHome = func(_ context.Context, a *Arrival) error {
				w.mu.Lock()
				w.arrivals = append(w.arrivals, a)
				w.mu.Unlock()
				return nil
			}
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.net.AddHost(addr, netsim.ZoneWired, srv.Handler())
		w.servers[addr] = srv
		return srv
	}
	w.home = mkLive("gw-0", true)
	mkLive("site-1", false)
	return w
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// admitLooper starts an agent that loops forever at site-1.
func admitLooper(t *testing.T, w *simWorld, id string) {
	t.Helper()
	prog, err := mascript.Compile(`
		migrate("site-1");
		let n = 0;
		while true { n = n + 1; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := mavm.New(prog, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.home.AdmitAgent(context.Background(), vm, "code-loop", "dev", tenant.DefaultID, "gw-0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "agent resident at site-1", func() bool {
		return w.servers["site-1"].AgentStates()[id] == StateRunning
	})
}

func TestRetractRunningAgent(t *testing.T) {
	w := newLiveWorld(t)
	admitLooper(t, w, "ag-loop")

	tr := w.net.Transport(netsim.ZoneWired)
	req := &transport.Request{Path: "/atp/retract"}
	req.SetHeader("agent", "ag-loop")
	req.SetHeader("to", "gw-0")
	resp, err := tr.RoundTrip(context.Background(), "site-1", req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("retract: %v %v", resp, err)
	}
	waitFor(t, "retracted arrival at home", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.arrivals) > 0 && w.arrivals[0].Kind == KindRetracted
	})
	w.mu.Lock()
	arrival := w.arrivals[0]
	w.mu.Unlock()
	if arrival.VM.Status() != mavm.StatusReady {
		t.Fatalf("retracted agent status = %v, want ready (mid-run)", arrival.VM.Status())
	}
}

func TestDisposeRunningAgent(t *testing.T) {
	w := newLiveWorld(t)
	admitLooper(t, w, "ag-dsp")

	tr := w.net.Transport(netsim.ZoneWired)
	req := &transport.Request{Path: "/atp/dispose"}
	req.SetHeader("agent", "ag-dsp")
	resp, err := tr.RoundTrip(context.Background(), "site-1", req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("dispose: %v %v", resp, err)
	}
	waitFor(t, "agent disposed", func() bool {
		return w.servers["site-1"].AgentStates()["ag-dsp"] == StateDisposed
	})
	// Home never hears from it again.
	w.mu.Lock()
	n := len(w.arrivals)
	w.mu.Unlock()
	if n != 0 {
		t.Fatalf("disposed agent delivered %d arrivals", n)
	}
}

func TestCloneRunningAgent(t *testing.T) {
	w := newLiveWorld(t)
	admitLooper(t, w, "ag-cln")

	tr := w.net.Transport(netsim.ZoneWired)
	req := &transport.Request{Path: "/atp/clone"}
	req.SetHeader("agent", "ag-cln")
	resp, err := tr.RoundTrip(context.Background(), "site-1", req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("clone: %v %v", resp, err)
	}
	cloneID := resp.Text()
	if cloneID == "" || cloneID == "ag-cln" {
		t.Fatalf("clone id = %q", cloneID)
	}
	waitFor(t, "clone running", func() bool {
		return w.servers["site-1"].AgentStates()[cloneID] == StateRunning
	})

	// Clean up both loopers.
	for _, id := range []string{"ag-cln", cloneID} {
		req := &transport.Request{Path: "/atp/dispose"}
		req.SetHeader("agent", id)
		tr.RoundTrip(context.Background(), "site-1", req) //nolint:errcheck
	}
	waitFor(t, "both disposed", func() bool {
		states := w.servers["site-1"].AgentStates()
		return states["ag-cln"] == StateDisposed && states[cloneID] == StateDisposed
	})
}

func TestRetractDepartedAgentReportsForwarding(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
	w.dispatch(t, bankTourSrc, map[string]mavm.Value{"banks": listParam("bank-a")})
	tr := w.net.Transport(netsim.ZoneWired)
	req := &transport.Request{Path: "/atp/retract"}
	req.SetHeader("agent", "ag-1")
	req.SetHeader("to", "gw-0")
	resp, err := tr.RoundTrip(context.Background(), "bank-a", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusGone || resp.GetHeader("moved-to") != "gw-0" {
		t.Fatalf("retract departed: %d %q", resp.Status, resp.GetHeader("moved-to"))
	}
}

// TestHomecomingParksWhenHomeUnreachable: a homecoming to a home that
// is down parks, with the error in /atp/status, and so does a migration
// to it, however many retries fail — failing either home would go to
// the same host. One RetryParked after home returns delivers it exactly
// once.
func TestHomecomingParksWhenHomeUnreachable(t *testing.T) {
	for name, src := range map[string]string{
		"homecoming":     `migrate("bank-a"); deliver("x", 1);`,
		"migration home": `migrate("bank-a"); migrate(home()); deliver("x", 1);`,
	} {
		t.Run(name, func(t *testing.T) {
			w := newSimWorld(t, map[string]string{"bank-a": "aglets"})
			prog, err := mascript.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			vm, _ := mavm.New(prog, "ag-away", nil)
			ctx := netsim.WithClock(context.Background(), netsim.NewClock())
			if err := w.home.AdmitAgent(ctx, vm, "code-1", "dev", tenant.DefaultID, "gw-0"); err != nil {
				t.Fatal(err)
			}
			// The gateway vanishes from the network right after dispatch. Its
			// local MAS still executes the queued agent loop, so the outbound
			// migration to bank-a succeeds — but the return transfer to the
			// downed gateway cannot.
			if err := w.net.SetDown("gw-0", true); err != nil {
				t.Fatal(err)
			}
			w.queue.Drain()
			w.retryParked(maxParkedRounds + 1)
			bankA := w.servers["bank-a"]
			if got := bankA.AgentStates()["ag-away"]; got != StateParked || len(w.arrivals) != 0 {
				t.Fatalf("state at bank-a = %q with %d arrival(s), want parked", got, len(w.arrivals))
			}
			// The parked record carries the error for operators to see.
			body := w.status(t, "bank-a", "ag-away")
			if st, _ := kxml.ParseBytes(body); st.AttrDefault("error", "") == "" {
				t.Fatalf("parked status has no error: %s", body)
			}
			if err := w.net.SetDown("gw-0", false); err != nil {
				t.Fatal(err)
			}
			if n := bankA.RetryParked(ctx); n != 1 {
				t.Fatalf("RetryParked = %d, want 1", n)
			}
			w.queue.Drain()
			if n := len(w.arrivals); n != 1 || w.arrivals[0].Kind != KindDone {
				t.Fatalf("arrivals = %d, want the journey home once, done", n)
			}
			if n := bankA.RetryParked(ctx); n != 0 {
				t.Fatalf("RetryParked after delivery = %d, want 0", n)
			}
		})
	}
}

func TestHopLimitStopsRunawayItinerary(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "aglets", "bank-b": "aglets"})
	// Tighten the limit on every server so the test is quick.
	for _, srv := range w.servers {
		srv.maxHops = 6
	}
	// An agent that bounces between the banks forever.
	arrival := w.dispatch(t, `
		while true {
			migrate("bank-a");
			migrate("bank-b");
		}
	`, nil)
	if arrival == nil {
		t.Fatal("runaway agent never terminated")
	}
	if arrival.Kind != KindFailed {
		t.Fatalf("kind = %s", arrival.Kind)
	}
	if !strings.Contains(arrival.VM.FailMsg(), "hop limit") {
		t.Fatalf("FailMsg = %q", arrival.VM.FailMsg())
	}
	if arrival.VM.Hops < 6 {
		t.Fatalf("hops = %d, expected to reach the limit", arrival.VM.Hops)
	}
}

func TestFlavourHandshakeCached(t *testing.T) {
	w := newSimWorld(t, map[string]string{"bank-a": "voyager"})
	// Two journeys to the same host: the second must not re-handshake.
	w.dispatch(t, `migrate("bank-a"); migrate(home()); deliver("n", 1);`, nil)
	afterFirst := w.net.Stats().Messages

	prog, _ := mascript.Compile(`migrate("bank-a"); migrate(home()); deliver("n", 2);`)
	vm, _ := mavm.New(prog, "ag-2", nil)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	if err := w.home.AdmitAgent(ctx, vm, "code-1", "dev", tenant.DefaultID, "gw-0"); err != nil {
		t.Fatal(err)
	}
	w.queue.Drain()
	secondJourney := w.net.Stats().Messages - afterFirst

	// First journey: hello(gw->bank) + transfer + hello(bank->gw) +
	// transfer = 4 messages. Second journey: 2 transfers only.
	if secondJourney != 2 {
		t.Fatalf("second journey used %d messages, want 2 (flavour cache miss?)", secondJourney)
	}
}

func TestNewServerValidation(t *testing.T) {
	tr := netsim.New(1).Transport(netsim.ZoneWired)
	if _, err := NewServer(Config{Codec: atp.AgletsCodec{}, Transport: tr}); err == nil {
		t.Error("missing addr accepted")
	}
	if _, err := NewServer(Config{Addr: "a", Transport: tr}); err == nil {
		t.Error("missing codec accepted")
	}
	if _, err := NewServer(Config{Addr: "a", Codec: atp.AgletsCodec{}}); err == nil {
		t.Error("missing transport accepted")
	}
}

// TestNewServerRegistersServerGauges: a server registers its own
// per-tenant rows, the default account's present from the first scrape,
// and its journal WAL's series, so no embedder repeats them.
func TestNewServerRegistersServerGauges(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		cfg := Config{Addr: "site", Codec: atp.AgletsCodec{}, Transport: netsim.New(1).Transport(netsim.ZoneWired)}
		if journaled {
			wal, err := rms.OpenWALStore(filepath.Join(t.TempDir(), "journal"), rms.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			cfg.Journal = wal
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scrape := string(srv.Metrics().AppendPrometheus(nil))
		for _, row := range []string{
			"pdagent_tenant_residents{tenant=\"default\"} 0\n",
			"pdagent_tenant_journal_bytes{tenant=\"default\"} 0\n",
		} {
			if !strings.Contains(scrape, row) {
				t.Errorf("journaled=%v: scrape lacks %q", journaled, row)
			}
		}
		if got := strings.Contains(scrape, "\npdagent_wal_fsyncs "); got != journaled {
			t.Errorf("journaled=%v: scrape has pdagent_wal_fsyncs = %v", journaled, got)
		}
	}
}
