package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connCounter counts the connections an httptest server accepts and
// closes.
type connCounter struct {
	opened, closed atomic.Int32
	closedCh       chan struct{}
}

func newCountingServer(t *testing.T, h Handler) (*httptest.Server, *connCounter) {
	t.Helper()
	cc := &connCounter{closedCh: make(chan struct{}, 128)}
	srv := httptest.NewUnstartedServer(NewHTTPHandler(h))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			cc.opened.Add(1)
		case http.StateClosed:
			cc.closed.Add(1)
			select {
			case cc.closedCh <- struct{}{}:
			default:
			}
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, cc
}

var okHandler = HandlerFunc(func(context.Context, *Request) *Response { return OKText("ok") })

// blockingHandler parks every request until release is called or the
// server drops the connection.
func blockingHandler() (h Handler, entered chan struct{}, release func()) {
	entered = make(chan struct{}, 128)
	unblock := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	return HandlerFunc(func(ctx context.Context, _ *Request) *Response {
		entered <- struct{}{}
		select {
		case <-unblock:
		case <-ctx.Done():
		}
		return OKText("ok")
	}), entered, release
}

func mustOK(t *testing.T, c *HTTPClient, addr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.RoundTrip(ctx, addr, &Request{Path: "/x"})
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if !resp.IsOK() || resp.Text() != "ok" {
		t.Fatalf("resp = %d %q", resp.Status, resp.Text())
	}
}

func TestNewPooledHTTPClientTuning(t *testing.T) {
	t.Run("per-destination cap", func(t *testing.T) {
		for _, tc := range []struct{ max, want int }{{2, 2}, {0, DefaultMaxPerDest}} {
			h, entered, release := blockingHandler()
			srv, cc := newCountingServer(t, h)
			c := NewPooledHTTPClient(tc.max)
			calls := tc.want + 6
			var wg sync.WaitGroup
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := c.RoundTrip(context.Background(), srv.URL, &Request{Path: "/x"}); err != nil {
						t.Errorf("RoundTrip: %v", err)
					}
				}()
			}
			for i := 0; i < tc.want; i++ {
				select {
				case <-entered:
				case <-time.After(5 * time.Second):
					t.Fatalf("max %d: %d of %d calls reached the server", tc.max, i, tc.want)
				}
			}
			// A call over the cap gets the time to reach the server
			// (wrongly) before the check.
			select {
			case <-entered:
				t.Fatalf("max %d: more than %d calls in flight", tc.max, tc.want)
			case <-time.After(50 * time.Millisecond):
			}
			if n := cc.opened.Load(); int(n) != tc.want {
				t.Fatalf("max %d: %d connections open, want %d", tc.max, n, tc.want)
			}
			release()
			wg.Wait()
			if n := cc.opened.Load(); int(n) != tc.want {
				t.Fatalf("max %d: %d calls opened %d connections, want %d reused", tc.max, calls, n, tc.want)
			}
		}
	})

	t.Run("idle connections expire", func(t *testing.T) {
		srv, cc := newCountingServer(t, okHandler)
		c := NewPooledHTTPClient(1)
		c.pool.idleTimeout = 50 * time.Millisecond
		mustOK(t, c, srv.URL)
		select {
		case <-cc.closedCh:
		case <-time.After(5 * time.Second):
			t.Fatal("idle connection never closed")
		}
		c.pool.mu.Lock()
		n := len(c.pool.dests)
		c.pool.mu.Unlock()
		if n != 0 {
			t.Fatalf("pool still holds %d destinations", n)
		}
		mustOK(t, c, srv.URL)
		if n := cc.opened.Load(); n != 2 {
			t.Fatalf("opened %d connections, want 2", n)
		}
	})

	t.Run("a call without a deadline is bounded", func(t *testing.T) {
		h, entered, _ := blockingHandler()
		srv, _ := newCountingServer(t, h)
		c := NewPooledHTTPClient(1)
		c.pool.timeout = 100 * time.Millisecond
		timedOut := func(what string) {
			t.Helper()
			start := time.Now()
			_, err := c.RoundTrip(context.Background(), srv.URL, &Request{Path: "/x"})
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("%s: err = %v, want a timeout", what, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("%s: returned after %v", what, d)
			}
		}
		timedOut("in flight")
		// Waiting for a connection at the cap is bounded too: this
		// caller queues behind another that holds the only slot.
		<-entered
		go c.RoundTrip(context.Background(), srv.URL, &Request{Path: "/x"}) //nolint:errcheck // times out on its own
		<-entered
		timedOut("queued")
	})
}

func TestHTTPClientFreshConnectionAfterServerRestart(t *testing.T) {
	srv1, _ := newCountingServer(t, okHandler)
	addr := srv1.Listener.Addr().String()
	c := NewPooledHTTPClient(1)
	mustOK(t, c, addr)
	srv1.Close() // closes the client's idle connection too

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := httptest.NewUnstartedServer(NewHTTPHandler(okHandler))
	srv2.Listener.Close()
	srv2.Listener = ln
	var opened atomic.Int32
	srv2.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv2.Start()
	defer srv2.Close()
	mustOK(t, c, addr)
	if n := opened.Load(); n != 1 {
		t.Fatalf("restarted server saw %d connections, want 1", n)
	}
}

func TestHTTPClientCancelAbortsInFlight(t *testing.T) {
	var calls atomic.Int32
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	srv, cc := newCountingServer(t, HandlerFunc(func(context.Context, *Request) *Response {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
		return OKText("ok")
	}))
	c := NewPooledHTTPClient(1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.RoundTrip(ctx, srv.URL, &Request{Path: "/x"})
		errc <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if NotDelivered(err) {
			t.Fatal("a request whose bytes were sent is marked not delivered")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not abort the round trip")
	}
	// With a cap of 1 the next call needs the aborted connection's
	// slot back: the connection was closed, not pooled.
	mustOK(t, c, srv.URL)
	if n := cc.opened.Load(); n != 2 {
		t.Fatalf("opened %d connections, want 2", n)
	}
}

// scriptedServer answers every request it reads with answer, closing
// the connection after each answer when closeAfter is set, and counts
// the connections it accepts.
func scriptedServer(t *testing.T, answer string, closeAfter bool) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		accepted atomic.Int32
		mu       sync.Mutex
		conns    []net.Conn
		wg       sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body) //nolint:errcheck
					if _, err := io.WriteString(nc, answer); err != nil || closeAfter {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &accepted
}

func TestHTTPClientResponseFraming(t *testing.T) {
	const hdr = "HTTP/1.1 200 OK\r\nX-Pdagent-K: v\r\n"
	for _, tc := range []struct {
		name, answer string
		closeAfter   bool
		wantConns    int32 // for two requests
	}{
		{"content-length", hdr + "Content-Length: 2\r\n\r\nok", false, 1},
		{"chunked", hdr + "Transfer-Encoding: chunked\r\n\r\n1\r\no\r\n1\r\nk\r\n0\r\n\r\n", false, 1},
		{"connection close", hdr + "Connection: close\r\nContent-Length: 2\r\n\r\nok", false, 2},
		{"close-delimited", hdr + "\r\nok", true, 2},
		{"trailing garbage", hdr + "Content-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n\r\n", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepted := scriptedServer(t, tc.answer, tc.closeAfter)
			c := NewPooledHTTPClient(1)
			for i := 0; i < 2; i++ {
				resp, err := c.RoundTrip(context.Background(), addr, &Request{Path: "/x"})
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if resp.Text() != "ok" || resp.GetHeader("k") != "v" {
					t.Fatalf("request %d: body %q, header k %q", i, resp.Text(), resp.GetHeader("k"))
				}
			}
			if n := accepted.Load(); n != tc.wantConns {
				t.Fatalf("two requests used %d connections, want %d", n, tc.wantConns)
			}
		})
	}
	for _, tc := range []struct{ name, answer string }{
		{"cut body", "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok"},
		{"cut header", "HTTP/1.1 200 OK\r\nContent-Le"},
		{"malformed status", "HTTP/1.1 abc\r\n\r\n"},
		{"bad chunk", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"},
		{"header over the bound", "HTTP/1.1 200 OK\r\nX-Pdagent-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepted := scriptedServer(t, tc.answer, true)
			c := NewPooledHTTPClient(1)
			for i := 0; i < 2; i++ {
				_, err := c.RoundTrip(context.Background(), addr, &Request{Path: "/x"})
				if err == nil {
					t.Fatalf("request %d: no error", i)
				}
				if NotDelivered(err) {
					t.Fatalf("request %d: a sent request is marked not delivered: %v", i, err)
				}
			}
			if n := accepted.Load(); n != 2 {
				t.Fatalf("two failed requests used %d connections, want 2", n)
			}
		})
	}
}

// appendRequest appends req as the client writes it: the checked head,
// then the body.
func appendRequest(b []byte, host string, req *Request) ([]byte, error) {
	if err := checkRequest(req); err != nil {
		return nil, err
	}
	b, err := appendRequestHead(b, host, req)
	if err != nil {
		return nil, err
	}
	return append(b, req.Body...), nil
}

// TestHTTPClientRequestBytes pins the request bytes to what net/http
// writes for the same request, so either client can talk to either
// server.
func TestHTTPClientRequestBytes(t *testing.T) {
	for _, body := range []string{"", "payload"} {
		req := &Request{Path: "/pdagent/dispatch", Body: []byte(body)}
		req.SetHeader("mailbox-token", "t0k")
		req.SetHeader("Ack", "7")
		req.SetHeader("agent", " ag-1 ")
		got, err := appendRequest(nil, "localhost:8080", req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, "http://localhost:8080/pdagent/dispatch", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range req.Header {
			hreq.Header.Set(headerPrefix+k, v)
		}
		var want bytes.Buffer
		if err := hreq.Write(&want); err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Fatalf("body %q:\n got %q\nwant %q", body, got, want.String())
		}
	}
}

func TestHTTPClientRefusesBadRequests(t *testing.T) {
	srv, cc := newCountingServer(t, okHandler)
	addr := srv.Listener.Addr().String()
	for _, tc := range []struct {
		name, addr string
		req        *Request
	}{
		{"CR LF in path", addr, &Request{Path: "/x HTTP/1.1\r\nX-Evil: 1\r\n\r\nPOST /y"}},
		{"LF in header value", addr, &Request{Path: "/x", Header: map[string]string{"k": "v\nX-Evil: 1"}}},
		{"CR LF in header value", addr, &Request{Path: "/x", Header: map[string]string{"k": "v\r\nX-Evil: 1"}}},
		{"CR LF in header name", addr, &Request{Path: "/x", Header: map[string]string{"k\r\nX-Evil": "1"}}},
		{"https", "https://" + addr, &Request{Path: "/x"}},
		{"other scheme", "ftp://" + addr, &Request{Path: "/x"}},
	} {
		if _, err := (&HTTPClient{}).RoundTrip(context.Background(), tc.addr, tc.req); err == nil {
			t.Errorf("%s: sent", tc.name)
		}
	}
	if n := cc.opened.Load(); n != 0 {
		t.Fatalf("refused requests opened %d connections", n)
	}
	mustOK(t, &HTTPClient{}, "HTTP://"+addr)
}

// TestHTTPClientPoolAccountsUnderCancel races callers whose deadlines
// end while they wait for a connection, dial or read: afterwards every
// slot is back, nothing waits, and the cap held.
func TestHTTPClientPoolAccountsUnderCancel(t *testing.T) {
	srv, _ := newCountingServer(t, HandlerFunc(func(_ context.Context, r *Request) *Response {
		if len(r.Body) > 0 {
			time.Sleep(time.Duration(r.Body[0]%3) * time.Millisecond)
		}
		return OKText("ok")
	}))
	addr := srv.Listener.Addr().String()
	c := NewPooledHTTPClient(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+(g+i)%4)*time.Millisecond)
				c.RoundTrip(ctx, addr, &Request{Path: "/x", Body: []byte{byte(i)}}) //nolint:errcheck // deadlines are meant to hit
				cancel()
			}
		}()
	}
	wg.Wait()
	c.pool.mu.Lock()
	d := c.pool.dests[addr]
	open, idle, waiters := d.open, len(d.idle), len(d.waiters)
	c.pool.mu.Unlock()
	if waiters != 0 || open != idle || open > 2 {
		t.Fatalf("at rest: open %d, idle %d, waiters %d", open, idle, waiters)
	}
	mustOK(t, c, addr)
}

// FuzzReadResponse feeds arbitrary server bytes to the client's
// response reader over net.Pipe. The reader does not panic, allocates
// in proportion to the bytes that arrived rather than to what a header
// declares, and keeps the connection only after reading exactly one
// whole response: a malformed or cut one is never pooled.
func FuzzReadResponse(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Pdagent-Agent: a\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 404 Not Found\r\n\r\nno",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 60000000\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n",
		"HTTP/1.1 2x0 OK\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	wire, err := appendRequest(nil, "h:1", &Request{Path: "/x", Body: []byte("req")})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cli, srv := net.Pipe()
		sent := make(chan int, 1)
		go func() {
			go io.Copy(io.Discard, srv) //nolint:errcheck // ends when the pipe closes
			n, _ := srv.Write(data)
			srv.Close()
			sent <- n
		}()
		cli.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		c := newConn("pipe", cli, maxBody)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, keep, err := c.roundTrip(context.Background(), wire)
		runtime.ReadMemStats(&after)
		cli.Close()
		n := <-sent

		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+16*len(data)); alloc > bound {
			t.Fatalf("%d bytes in: allocated %d, bound %d", len(data), alloc, bound)
		}
		if err != nil {
			if keep {
				t.Fatalf("kept the connection after %v", err)
			}
			return
		}
		if len(resp.Body) > maxBody {
			t.Fatalf("body of %d bytes", len(resp.Body))
		}
		if !keep {
			return
		}
		// Kept: what arrived is one response, read whole.
		br := bufio.NewReader(bytes.NewReader(data[:n]))
		ref, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("kept after a response net/http cannot read: %v", err)
		}
		body, err := io.ReadAll(ref.Body)
		if err != nil || !bytes.Equal(body, resp.Body) || ref.StatusCode != resp.Status {
			t.Fatalf("kept after a response net/http reads differently: %d %q %v vs %d %q", ref.StatusCode, body, err, resp.Status, resp.Body)
		}
		if br.Buffered() != 0 {
			t.Fatalf("kept with %d bytes after the response", br.Buffered())
		}
	})
}
