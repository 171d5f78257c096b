package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pdagent/internal/compress"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// dispatchResult runs a full dispatch→drain→collect cycle and returns
// the parsed result document.
func (f *fixture) dispatchResult(t *testing.T, pi *wire.PackedInformation) *wire.ResultDocument {
	t.Helper()
	resp := f.dispatchPI(t, pi, false)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	agentID := resp.Text()
	f.queue.Drain()
	rreq := &transport.Request{Path: "/pdagent/result"}
	rreq.SetHeader("agent", agentID)
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", rreq)
	if err != nil || !resp.IsOK() {
		t.Fatalf("result: %v %v", resp, err)
	}
	rd, err := wire.ParseResultDocument(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestDispatchCacheHitSkipsCompiler proves the acceptance criterion
// directly: once a code package is registered, dispatching it performs
// zero MAScript lexer/parser work. The compiler entry point is poisoned
// after registration; any compile attempt fails the dispatch, so an OK
// response plus a correct result is proof the cache served the program.
func TestDispatchCacheHitSkipsCompiler(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")

	realCompile := mascript.CompileEntry
	mascript.CompileEntry = func(src string) (*mavm.Program, error) {
		return nil, fmt.Errorf("poisoned: compiler invoked on the cache-hit path for %q", src)
	}
	defer func() { mascript.CompileEntry = realCompile }()

	for i := 0; i < 3; i++ {
		rd := f.dispatchResult(t, &wire.PackedInformation{
			CodeID:      "echo",
			DispatchKey: pisec.DispatchKey("echo", sub.Secret),
			Owner:       "dev-1",
			Source:      sub.Package.Source,
			Params:      map[string]mavm.Value{"n": mavm.Int(int64(i))},
		})
		if !rd.OK() {
			t.Fatalf("dispatch %d: result %+v", i, rd)
		}
		echo, ok := rd.Get("echo")
		if !ok || echo.MapEntries()["n"].AsInt() != int64(i) {
			t.Fatalf("dispatch %d: echo = %v", i, echo)
		}
	}
	if st := f.gw.Programs().Stats(); st.Hits < 3 {
		t.Fatalf("cache stats %+v, want >= 3 hits", st)
	}

	// An unregistered ad-hoc source must now fail visibly through the
	// poisoned compiler — proving the poison was live during the hits.
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Source:      `deliver("other", 1);`,
	}
	if resp := f.dispatchPI(t, pi, false); resp.Status != transport.StatusBadRequest {
		t.Fatalf("ad-hoc source under poisoned compiler: status %d, want bad request", resp.Status)
	}
}

// TestDispatchByReferenceSkipsCompiler: a PI that names its code by hash
// runs the catalogue program, and compiles nothing doing it.
func TestDispatchByReferenceSkipsCompiler(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")

	compiles := 0
	realCompile := mascript.CompileEntry
	mascript.CompileEntry = func(src string) (*mavm.Program, error) {
		compiles++
		return nil, fmt.Errorf("poisoned: compiler invoked on a reference dispatch for %q", src)
	}
	defer func() { mascript.CompileEntry = realCompile }()

	rd := f.dispatchResult(t, &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		CodeHash:    wire.CodeHash(sub.Package.Source),
		Params:      map[string]mavm.Value{"n": mavm.Int(7)},
	})
	if echo, ok := rd.Get("echo"); !rd.OK() || !ok || echo.MapEntries()["n"].AsInt() != 7 {
		t.Fatalf("reference dispatch: result %+v", rd)
	}
	if compiles != 0 {
		t.Fatalf("reference dispatch compiled %d time(s), want 0", compiles)
	}
}

// TestStaleCodeHashPreconditionFailed: a hash the catalogue does not
// hold is answered 412 before admission, so it spends neither the
// tenant's only rate token nor the nonce — the device's re-send of the
// same upload carrying the code is admitted. The 412 is counted as a
// refusal, the re-send is not.
func TestStaleCodeHashPreconditionFailed(t *testing.T) {
	f := newTenantFixture(t, nil,
		&tenant.Tenant{ID: "acme", Secret: "s3", Limits: tenant.Limits{RatePerSec: 0.0001, Burst: 1}})
	f.addEcho(t)
	sub, _ := f.subscribeTenant(t, "echo", "dev-1", "acme", "s3")
	wantRefused := func(n int) {
		t.Helper()
		row := fmt.Sprintf("pdagent_dispatch_refused_total{reason=\"412-code\"} %d\n", n)
		if scrape := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"}).Text(); !strings.Contains(scrape, row) {
			t.Fatalf("scrape lacks %q", row)
		}
	}

	wantRefused(0)
	pi := f.echoPI(sub, "dev-1")
	pi.Source, pi.CodeHash = "", wire.CodeHash(`deliver("old", 1);`)
	if resp := f.dispatchPI(t, pi, true); resp.Status != transport.StatusPreconditionFailed {
		t.Fatalf("stale hash: %d %s, want 412", resp.Status, resp.Text())
	}
	wantRefused(1)
	pi.Source = sub.Package.Source
	if resp := f.dispatchPI(t, pi, true); !resp.IsOK() {
		t.Fatalf("same-nonce re-send carrying the code: %d %s", resp.Status, resp.Text())
	}
	wantRefused(1)
	f.queue.Drain()
}

// TestUnknownSessionPreconditionFailed: a sealed upload naming a session
// this gateway does not hold is answered 412 before the key check,
// admission and the nonce: it spends neither the tenant's only rate
// token nor the nonce, and opens no mailbox. The re-send of the same
// upload with the wrapped key is admitted.
func TestUnknownSessionPreconditionFailed(t *testing.T) {
	f := newTenantFixture(t, nil,
		&tenant.Tenant{ID: "acme", Secret: "s3", Limits: tenant.Limits{RatePerSec: 0.0001, Burst: 1}})
	f.addEcho(t)
	sub, _ := f.subscribeTenant(t, "echo", "dev-1", "acme", "s3")
	pi := f.echoPI(sub, "dev-1")
	pi.Nonce = "n-unknown-session"

	// A sender that believes its session accepted, which this gateway
	// never opened: what a restart or an evicted entry leaves behind.
	pk := f.kp.Public()
	wrapped, err := wire.Pack(pi, compress.LZSS, pk)
	if err != nil {
		t.Fatal(err)
	}
	pk.Accepted(wrapped)
	byID, err := wire.Pack(pi, compress.LZSS, pk)
	if err != nil {
		t.Fatal(err)
	}
	full0, resumed0, unknown0, sessions0 := f.kp.UnsealStats()
	if resp := f.dispatchBody(t, byID); resp.Status != transport.StatusPreconditionFailed {
		t.Fatalf("unknown session: %d %s, want 412", resp.Status, resp.Text())
	}
	f.wantUnsealRows(t, full0, resumed0, unknown0+1, sessions0)
	if f.gw.Mailbox().Known("dev-1") {
		t.Fatal("the 412 opened the device's mailbox")
	}
	if resp := f.dispatchBody(t, wrapped); !resp.IsOK() {
		t.Fatalf("same-nonce re-send with the wrapped key: %d %s", resp.Status, resp.Text())
	}
	f.queue.Drain()
}

// TestReRegisterInvalidatesCache re-registers a code id with new source
// and demands the next dispatch run the new program, not the cached old
// one.
func TestReRegisterInvalidatesCache(t *testing.T) {
	f := newFixture(t)
	register := func(version int) {
		err := f.gw.AddCodePackage(&wire.CodePackage{
			CodeID: "app.v", Name: "V", Version: fmt.Sprint(version),
			Source: fmt.Sprintf(`deliver("v", %d);`, version),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	register(1)
	sub := f.subscribe(t, "app.v", "dev-1")
	key := pisec.DispatchKey("app.v", sub.Secret)

	rd := f.dispatchResult(t, &wire.PackedInformation{
		CodeID: "app.v", DispatchKey: key, Owner: "dev-1", Source: sub.Package.Source,
	})
	if v, _ := rd.Get("v"); v.AsInt() != 1 {
		t.Fatalf("v1 dispatch delivered %v", v)
	}

	register(2)
	sub2 := f.subscribe(t, "app.v", "dev-1")
	key2 := pisec.DispatchKey("app.v", sub2.Secret)
	rd = f.dispatchResult(t, &wire.PackedInformation{
		CodeID: "app.v", DispatchKey: key2, Owner: "dev-1", Source: sub2.Package.Source,
	})
	if v, _ := rd.Get("v"); v.AsInt() != 2 {
		t.Fatalf("after re-registration dispatch delivered %v, want 2", v)
	}
	// Exactly one pin per registered code id survives the swap.
	pinned, _ := f.gw.Programs().Len()
	if pinned != 1 {
		t.Fatalf("pinned programs = %d, want 1", pinned)
	}
}

// TestConcurrentCachedDispatch hammers the dispatch handler from many
// goroutines mixing two registered packages and an ad-hoc source; run
// under -race it is the cache's concurrency proof at the gateway level.
func TestConcurrentCachedDispatch(t *testing.T) {
	f := newFixture(t)
	f.addEcho(t)
	err := f.gw.AddCodePackage(&wire.CodePackage{
		CodeID: "app.two", Name: "Two", Version: "1", Source: `deliver("two", 2);`,
	})
	if err != nil {
		t.Fatal(err)
	}
	subEcho := f.subscribe(t, "echo", "dev-c")
	subTwo := f.subscribe(t, "app.two", "dev-c")
	keyEcho := pisec.DispatchKey("echo", subEcho.Secret)
	keyTwo := pisec.DispatchKey("app.two", subTwo.Secret)

	// Dispatch directly against the handler (the netsim fixture
	// transport is not meant for concurrent callers).
	handler := f.gw.Handler()
	const goroutines, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pi := &wire.PackedInformation{Owner: "dev-c"}
				switch i % 3 {
				case 0:
					pi.CodeID, pi.DispatchKey, pi.Source = "echo", keyEcho, subEcho.Package.Source
				case 1:
					pi.CodeID, pi.DispatchKey, pi.Source = "app.two", keyTwo, subTwo.Package.Source
				default:
					// Ad-hoc: same code id (authorised) but modified source
					// exercising the LRU side.
					pi.CodeID, pi.DispatchKey = "echo", keyEcho
					pi.Source = fmt.Sprintf(`deliver("adhoc", %d);`, i%5)
				}
				nonce, err := wire.NewNonce(context.Background())
				if err != nil {
					errs <- err
					return
				}
				pi.Nonce = nonce
				body, err := wire.Pack(pi, 0, nil)
				if err != nil {
					errs <- err
					return
				}
				resp := handler.Serve(context.Background(), &transport.Request{
					Path: "/pdagent/dispatch", Body: body,
				})
				if !resp.IsOK() {
					errs <- fmt.Errorf("goroutine %d dispatch %d: %d %s", g, i, resp.Status, resp.Text())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := f.gw.Programs().Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits under concurrent dispatch: %+v", st)
	}
}
