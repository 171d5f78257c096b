package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pdagent/internal/transport"
)

// namedHTTP routes member names to real loopback servers over the real
// HTTP client, so a test controls the order peers are heartbeated in.
type namedHTTP map[string]string

func (m namedHTTP) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	return (&transport.HTTPClient{}).RoundTrip(ctx, m[addr], req)
}

// serveCounting serves n on a loopback transport.Server, counting the
// heartbeats it hears, and returns its address.
func serveCounting(t *testing.T, n *Node, heard *atomic.Int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := n.Handler()
	srv := transport.NewServer(transport.HandlerFunc(func(ctx context.Context, r *transport.Request) *transport.Response {
		if r.Path == "/cluster/heartbeat" {
			heard.Add(1)
		}
		return h.Serve(ctx, r)
	}))
	go srv.Serve(ln)                                         //nolint:errcheck // ends with Shutdown
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck // handlers return at once
	return ln.Addr().String()
}

// TestStoppedPeerDoesNotStallHeartbeat: gw-1 accepts the connection and
// never answers, like a member under kill -STOP. One tick at gw-0 still
// returns within heartbeatTimeout (plus scheduling slack), not the HTTP
// client's 30 s, and gw-2, heartbeated after gw-1, still gets its
// heartbeat and answers it.
func TestStoppedPeerDoesNotStallHeartbeat(t *testing.T) {
	release := make(chan struct{})
	stopped := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer stopped.Close()
	defer close(release) // runs first: the parked handler returns before Close waits on it

	routes := namedHTTP{"gw-1": stopped.Listener.Addr().String()}
	seeds := []string{"gw-0", "gw-1", "gw-2"}
	healthy := NewNode(Config{Self: "gw-2", Seeds: seeds, Transport: routes, Secret: "test-cluster-secret"})
	var heard atomic.Int32
	routes["gw-2"] = serveCounting(t, healthy, &heard)

	node := NewNode(Config{Self: "gw-0", Seeds: seeds, Transport: routes, Secret: "test-cluster-secret"})
	answered := make(chan int, 1)
	start := time.Now()
	go func() { answered <- node.Tick(context.Background()) }()
	bound := heartbeatTimeout + 2*time.Second
	select {
	case n := <-answered:
		if n != 1 || heard.Load() != 1 {
			t.Fatalf("tick: %d peer(s) answered, gw-2 heard %d heartbeat(s); want 1 and 1", n, heard.Load())
		}
		t.Logf("tick with a stopped peer took %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(bound):
		t.Fatalf("a tick with one stopped peer is still running after %v (gw-2 heard %d heartbeat(s))", bound, heard.Load())
	}
}

// TestStoppedPeersCostOneHeartbeatTimeout: gw-1 and gw-2 both accept
// the connection and never answer. A tick at gw-0 heartbeats its peers
// at once, so it returns within one heartbeatTimeout plus slack, not
// one per stopped peer (two in a row would take 2 s), and gw-3 still
// hears its heartbeat and answers it.
func TestStoppedPeersCostOneHeartbeatTimeout(t *testing.T) {
	release := make(chan struct{})
	stopped := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer stopped.Close()
	defer close(release) // runs first: the parked handlers return before Close waits on them

	routes := namedHTTP{"gw-1": stopped.Listener.Addr().String(), "gw-2": stopped.Listener.Addr().String()}
	seeds := []string{"gw-0", "gw-1", "gw-2", "gw-3"}
	healthy := NewNode(Config{Self: "gw-3", Seeds: seeds, Transport: routes, Secret: "test-cluster-secret"})
	var heard atomic.Int32
	routes["gw-3"] = serveCounting(t, healthy, &heard)

	node := NewNode(Config{Self: "gw-0", Seeds: seeds, Transport: routes, Secret: "test-cluster-secret"})
	start := time.Now()
	n := node.Tick(context.Background())
	took := time.Since(start)
	if n != 1 || heard.Load() != 1 {
		t.Fatalf("tick: %d peer(s) answered, gw-3 heard %d heartbeat(s); want 1 and 1", n, heard.Load())
	}
	if bound := heartbeatTimeout + heartbeatTimeout/2; took >= bound {
		t.Fatalf("a tick with two stopped peers took %v, bound %v", took.Round(time.Millisecond), bound)
	}
	t.Logf("tick with two stopped peers took %v", took.Round(time.Millisecond))
}
