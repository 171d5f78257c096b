package gateway

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// TestRegistryConcurrentDispatchNoLoss hammers the dispatch-path
// registry operations from many goroutines and asserts no agent id is
// duplicated, no dispatch record is lost, and every completion is
// visible afterwards. Run under -race this also proves the striping is
// data-race free.
func TestRegistryConcurrentDispatchNoLoss(t *testing.T) {
	reg := NewRegistry(rms.NewMemStore("docs", 0))
	const goroutines = 16
	const perG = 200
	for i := 0; i < goroutines; i++ {
		reg.SetSecret("app.echo", fmt.Sprintf("dev-%d", i), []byte{byte(i)}, tenant.DefaultID)
	}
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("dev-%d", i)
			for k := 0; k < perG; k++ {
				if _, _, ok := reg.SecretOwner("app.echo", owner); !ok {
					t.Errorf("secret for %s lost", owner)
					return
				}
				nonce := fmt.Sprintf("n-%d-%d", i, k)
				if !reg.RememberNonce("app.echo", owner, nonce) {
					t.Errorf("fresh nonce %s rejected", nonce)
					return
				}
				if reg.RememberNonce("app.echo", owner, nonce) {
					t.Errorf("nonce %s accepted twice", nonce)
					return
				}
				id := reg.NextAgentID("gw-race")
				reg.CreateAgent(id, "app.echo", owner, tenant.DefaultID, "", "")
				reg.CompleteAgent(id, "app.echo", owner, i*perG+k, "")
				st, ok := reg.Agent(id)
				if !ok || !st.Done || st.Owner != owner {
					t.Errorf("agent %s: status %+v ok=%v", id, st, ok)
					return
				}
				ids[i] = append(ids[i], id)
			}
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, chunk := range ids {
		for _, id := range chunk {
			if seen[id] {
				t.Fatalf("duplicate agent id %s", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("agents recorded = %d, want %d", len(seen), goroutines*perG)
	}
	if n := reg.NumAgents(); n != goroutines*perG {
		t.Fatalf("NumAgents = %d, want %d", n, goroutines*perG)
	}
}

// TestRegistryNonceSingleAcceptance races many goroutines on the SAME
// nonce: exactly one must win.
func TestRegistryNonceSingleAcceptance(t *testing.T) {
	reg := NewRegistry(rms.NewMemStore("docs", 0))
	reg.SetSecret("app.echo", "dev-1", []byte("s"), tenant.DefaultID)
	for round := 0; round < 50; round++ {
		nonce := fmt.Sprintf("contested-%d", round)
		const racers = 32
		var accepted atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if reg.RememberNonce("app.echo", "dev-1", nonce) {
					accepted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := accepted.Load(); n != 1 {
			t.Fatalf("round %d: nonce accepted %d times, want exactly 1", round, n)
		}
	}
}

func TestRegistryReleaseAgent(t *testing.T) {
	reg := NewRegistry(rms.NewMemStore("docs", 0))
	if reg.ReleaseAgent("ghost", "x") {
		t.Fatal("released unknown agent")
	}
	reg.CreateAgent("ag-1", "app.echo", "dev-1", tenant.DefaultID, "", "")
	if n := reg.InFlight(); n != 1 {
		t.Fatalf("in flight before release = %d, want 1", n)
	}
	if !reg.ReleaseAgent("ag-1", "disposed by owner") {
		t.Fatal("release of a known agent failed")
	}
	st, _ := reg.Agent("ag-1")
	if !st.Gone || st.Done || st.LastWhy != "disposed by owner" {
		t.Fatalf("released status = %+v", st)
	}
	if n := reg.InFlight(); n != 0 {
		t.Fatalf("in flight after release = %d, want 0", n)
	}
}

func TestRegistryAdoptClone(t *testing.T) {
	reg := NewRegistry(rms.NewMemStore("docs", 0))
	if reg.AdoptClone("ghost", "clone-1") {
		t.Fatal("adopted clone of unknown agent")
	}
	reg.CreateAgent("ag-1", "app.echo", "dev-1", tenant.DefaultID, "", "")
	if !reg.AdoptClone("ag-1", "clone-1") {
		t.Fatal("clone adoption failed")
	}
	st, ok := reg.Agent("clone-1")
	if !ok || st.CodeID != "app.echo" || st.Owner != "dev-1" {
		t.Fatalf("clone meta = %+v ok=%v", st, ok)
	}
	// A clone that already came home must not be reset by a late
	// AdoptClone (the clone-verb response racing the arrival).
	reg.CompleteAgent("clone-1", "app.echo", "dev-1", 9, "")
	if !reg.AdoptClone("ag-1", "clone-1") {
		t.Fatal("re-adoption failed")
	}
	st, _ = reg.Agent("clone-1")
	if !st.Done || st.DocID != 9 {
		t.Fatalf("late adoption reset completed clone: %+v", st)
	}
}

// concurrentFixture is a gateway on a simulated network whose agent
// loops run on real goroutines, for hammering the handlers in
// parallel.
type concurrentFixture struct {
	net *netsim.Network
	gw  *Gateway
	tr  transport.RoundTripper
}

func newConcurrentFixture(t *testing.T) *concurrentFixture {
	t.Helper()
	testKPOnce.Do(func() {
		kp, err := pisec.GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
		testKP = kp
	})
	f := &concurrentFixture{net: netsim.New(7)}
	f.net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{Latency: time.Millisecond})
	f.net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, netsim.Link{Latency: 2 * time.Millisecond})
	gw, err := New(Config{
		Addr:      "gw-c",
		KeyPair:   testKP,
		Transport: f.net.Transport(netsim.ZoneWired),
		Spawn:     func(fn func()) { go fn() },
		Documents: rms.NewMemStore("docs", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	f.net.AddHost("gw-c", netsim.ZoneWired, gw.Handler())
	f.tr = f.net.Transport(netsim.ZoneWireless)
	return f
}

// collectResult collects an agent's result document through
// /pdagent/result as a device does: 409 means still travelling, so it
// asks again until the deadline.
func collectResult(tr transport.RoundTripper, gw, agentID string) (*transport.Response, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req := &transport.Request{Path: "/pdagent/result"}
		req.SetHeader("agent", agentID)
		resp, err := tr.RoundTrip(context.Background(), gw, req)
		if err != nil || resp.Status != transport.StatusConflict {
			return resp, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("agent %s: result lost (still travelling after 10s)", agentID)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewayConcurrentDispatchNoLostResults is the -race hammering
// test of the dispatch path: many goroutines subscribe, dispatch and
// collect concurrently; every dispatched agent must produce exactly its
// own result (no losses, no cross-wiring), and the shared-nonce race
// must admit exactly one dispatch.
func TestGatewayConcurrentDispatchNoLostResults(t *testing.T) {
	f := newConcurrentFixture(t)
	err := f.gw.AddCodePackage(&wire.CodePackage{
		CodeID: "echo", Name: "Echo", Version: "1", Source: echoSrc,
	})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const perG = 6
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("dev-%d", i)
			// Subscribe through the handler, like a real device.
			sreq := &transport.Request{Path: "/pdagent/subscribe"}
			sreq.SetHeader("code-id", "echo")
			sreq.SetHeader("owner", owner)
			resp, err := f.tr.RoundTrip(context.Background(), "gw-c", sreq)
			if err != nil || !resp.IsOK() {
				t.Errorf("%s subscribe: %v %v", owner, resp, err)
				return
			}
			sub, err := wire.ParseSubscription(resp.Body)
			if err != nil {
				t.Errorf("%s subscription: %v", owner, err)
				return
			}
			for k := 0; k < perG; k++ {
				tag := fmt.Sprintf("tag-%d-%d", i, k)
				nonce, err := wire.NewNonce(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				pi := &wire.PackedInformation{
					CodeID:      "echo",
					DispatchKey: pisec.DispatchKey("echo", sub.Secret),
					Owner:       owner,
					Nonce:       nonce,
					Source:      sub.Package.Source,
					Params:      map[string]mavm.Value{"tag": mavm.Str(tag)},
				}
				body, err := wire.Pack(pi, compress.LZSS, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := f.tr.RoundTrip(context.Background(), "gw-c", &transport.Request{
					Path: "/pdagent/dispatch", Body: body,
				})
				if err != nil || !resp.IsOK() {
					t.Errorf("%s dispatch %s: %v %v", owner, tag, resp, err)
					return
				}
				agentID := resp.Text()
				resp, err = collectResult(f.tr, "gw-c", agentID)
				if err != nil || !resp.IsOK() {
					t.Errorf("agent %s result: %v %v", agentID, resp, err)
					return
				}
				rd, err := wire.ParseResultDocument(resp.Body)
				if err != nil || !rd.OK() {
					t.Errorf("agent %s result doc: %+v (%v)", agentID, rd, err)
					return
				}
				echo, ok := rd.Get("echo")
				if !ok || echo.MapEntries()["tag"].AsStr() != tag {
					t.Errorf("agent %s: cross-wired result %v, want tag %s", agentID, echo, tag)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Shared-nonce race: the same packed body fired from many
	// goroutines must dispatch exactly once (nonceWindow under
	// contention).
	sub := mustSubscribe(t, f, "echo", "racer")
	nonce, err := wire.NewNonce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "racer",
		Nonce:       nonce,
		Source:      sub.Package.Source,
	}
	body, err := wire.Pack(pi, compress.LZSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	const racers = 16
	var okCount, conflictCount atomic.Int32
	ids := make([]string, racers)
	var wg2 sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		i := i
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			<-start
			resp, err := f.tr.RoundTrip(context.Background(), "gw-c", &transport.Request{
				Path: "/pdagent/dispatch", Body: body,
			})
			if err != nil {
				t.Errorf("replay race: %v", err)
				return
			}
			switch resp.Status {
			case transport.StatusOK:
				// Either the single winning admission, or an idempotent
				// answer carrying the winner's agent id.
				okCount.Add(1)
				ids[i] = resp.Text()
			case transport.StatusConflict:
				// Raced the winner before its admission completed.
				conflictCount.Add(1)
			default:
				t.Errorf("replay race: unexpected status %d %s", resp.Status, resp.Text())
			}
		}()
	}
	close(start)
	wg2.Wait()
	if okCount.Load() < 1 || okCount.Load()+conflictCount.Load() != racers {
		t.Fatalf("shared nonce: %d accepted / %d conflicts over %d racers",
			okCount.Load(), conflictCount.Load(), racers)
	}
	// Every accepted response names the SAME agent: one admission.
	winner := ""
	for _, id := range ids {
		if id == "" {
			continue
		}
		if winner == "" {
			winner = id
		} else if id != winner {
			t.Fatalf("shared nonce admitted two agents: %q and %q", winner, id)
		}
	}
}

func mustSubscribe(t *testing.T, f *concurrentFixture, codeID, owner string) *wire.Subscription {
	t.Helper()
	req := &transport.Request{Path: "/pdagent/subscribe"}
	req.SetHeader("code-id", codeID)
	req.SetHeader("owner", owner)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-c", req)
	if err != nil || !resp.IsOK() {
		t.Fatalf("subscribe: %v %v", resp, err)
	}
	sub, err := wire.ParseSubscription(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestGatewayDisposeReleasesResult disposes a still-travelling agent
// and asserts the gateway reports the terminal state: a device's
// collection gets 410 Gone (not "still travelling" forever) and the
// agent no longer counts as in flight.
func TestGatewayDisposeReleasesResult(t *testing.T) {
	f := newConcurrentFixture(t)
	gw, err := New(Config{
		Addr:      "gw-dispose",
		KeyPair:   testKP,
		Transport: f.net.Transport(netsim.ZoneWired),
		Spawn:     func(func()) {}, // the agent suspends in admission and never resumes
		FuelSlice: fixtureFuel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.AddCodePackage(&wire.CodePackage{
		CodeID: "echo", Name: "Echo", Version: "1", Source: slowEchoSrc,
	}); err != nil {
		t.Fatal(err)
	}
	f.net.AddHost("gw-dispose", netsim.ZoneWired, gw.Handler())

	sreq := &transport.Request{Path: "/pdagent/subscribe"}
	sreq.SetHeader("code-id", "echo")
	sreq.SetHeader("owner", "dev-1")
	resp, err := f.tr.RoundTrip(context.Background(), "gw-dispose", sreq)
	if err != nil || !resp.IsOK() {
		t.Fatalf("subscribe: %v %v", resp, err)
	}
	sub, err := wire.ParseSubscription(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := wire.NewNonce(context.Background())
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Nonce:       nonce,
		Source:      sub.Package.Source,
	}
	body, err := wire.Pack(pi, compress.LZSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := f.tr.RoundTrip(context.Background(), "gw-dispose", &transport.Request{
		Path: "/pdagent/dispatch", Body: body,
	})
	if err != nil || !dresp.IsOK() {
		t.Fatalf("dispatch: %v %v", dresp, err)
	}
	agentID := dresp.Text()
	if n := gw.Registry().InFlight(); n != 1 {
		t.Fatalf("in flight before dispose = %d, want 1", n)
	}

	mreq := &transport.Request{Path: "/pdagent/manage/dispose"}
	mreq.SetHeader("agent", agentID)
	resp, err = f.tr.RoundTrip(context.Background(), "gw-dispose", mreq)
	if err != nil || !resp.IsOK() {
		t.Fatalf("dispose: %v %v", resp, err)
	}

	resp, err = collectResult(f.tr, "gw-dispose", agentID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusGone {
		t.Fatalf("result after dispose = %d %s, want %d", resp.Status, resp.Text(), transport.StatusGone)
	}
	// Status answers terminally without chasing a dead agent.
	streq := &transport.Request{Path: "/pdagent/status"}
	streq.SetHeader("agent", agentID)
	resp, err = f.tr.RoundTrip(context.Background(), "gw-dispose", streq)
	if err != nil || !resp.IsOK() || resp.GetHeader("agent-state") != "disposed" {
		t.Fatalf("status after dispose = %v %v (state %q)", resp, err, resp.GetHeader("agent-state"))
	}
	if n := gw.Registry().InFlight(); n != 0 {
		t.Fatalf("in flight after dispose = %d, want 0", n)
	}
}

// TestGatewayConcurrentStatusChase drives many simultaneous status
// requests (each a chase under the outbound slot semaphore) and then
// verifies Close() fails further outbound work instead of hanging.
func TestGatewayConcurrentStatusChase(t *testing.T) {
	f := newConcurrentFixture(t)
	// A no-op Spawn never runs the agent past the slice admission gave
	// it (slowEchoSrc needs a second one), so it stays "running" at home
	// and every chaser observes a live chase.
	gwIdle, err := New(Config{
		Addr:            "gw-idle",
		KeyPair:         testKP,
		Transport:       f.net.Transport(netsim.ZoneWired),
		Spawn:           func(func()) {}, // agent loops never run
		FuelSlice:       fixtureFuel,
		OutboundWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gwIdle.AddCodePackage(&wire.CodePackage{
		CodeID: "echo", Name: "Echo", Version: "1", Source: slowEchoSrc,
	}); err != nil {
		t.Fatal(err)
	}
	f.net.AddHost("gw-idle", netsim.ZoneWired, gwIdle.Handler())

	sreq := &transport.Request{Path: "/pdagent/subscribe"}
	sreq.SetHeader("code-id", "echo")
	sreq.SetHeader("owner", "dev-1")
	resp, err := f.tr.RoundTrip(context.Background(), "gw-idle", sreq)
	if err != nil || !resp.IsOK() {
		t.Fatalf("subscribe: %v %v", resp, err)
	}
	sub, err := wire.ParseSubscription(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := wire.NewNonce(context.Background())
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Nonce:       nonce,
		Source:      sub.Package.Source,
	}
	body, err := wire.Pack(pi, compress.LZSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := f.tr.RoundTrip(context.Background(), "gw-idle", &transport.Request{
		Path: "/pdagent/dispatch", Body: body,
	})
	if err != nil || !dresp.IsOK() {
		t.Fatalf("dispatch: %v %v", dresp, err)
	}
	agentID := dresp.Text()

	const chasers = 32
	var wg sync.WaitGroup
	for i := 0; i < chasers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sreq := &transport.Request{Path: "/pdagent/status"}
			sreq.SetHeader("agent", agentID)
			resp, err := f.tr.RoundTrip(context.Background(), "gw-idle", sreq)
			if err != nil || !resp.IsOK() {
				t.Errorf("status: %v %v", resp, err)
				return
			}
			if resp.GetHeader("agent-state") != "travelling" {
				t.Errorf("agent-state = %q", resp.GetHeader("agent-state"))
			}
		}()
	}
	wg.Wait()

	gwIdle.Close()
	sreq2 := &transport.Request{Path: "/pdagent/status"}
	sreq2.SetHeader("agent", agentID)
	resp, err = f.tr.RoundTrip(context.Background(), "gw-idle", sreq2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusServerError {
		t.Fatalf("status after Close = %d %s, want %d", resp.Status, resp.Text(), transport.StatusServerError)
	}
}

// TestSkipIDs: the sequence moves past every id of this gateway that an
// argument names, agent or event id, and ignores the rest.
func TestSkipIDs(t *testing.T) {
	reg := NewRegistry(rms.NewMemStore("docs", 0))
	skip := reg.SkipIDs("gw-0")
	for _, s := range []string{"ag-gw-0-3", "result:ag-gw-0-12", "ag-gw-1-99", "ag-gw-0-5",
		"clone:ag-gw-0-40-c1", "ag-gw-0-184467440737095516160"} {
		skip(s)
	}
	if id := reg.NextAgentID("gw-0"); id != "ag-gw-0-13" {
		t.Fatalf("next id after the skips = %s, want ag-gw-0-13", id)
	}
}
