package gateway

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
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
				nonce, err := wire.NewNonce()
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
