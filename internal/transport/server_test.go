package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
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

// serveLoopback serves srv on a loopback port until the test ends and
// returns its address.
func serveLoopback(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Shutdown
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best effort at the end of a test
	})
	return ln.Addr().String()
}

// echoHandler answers "path:body" and returns header k with "-back".
var echoHandler = HandlerFunc(func(_ context.Context, r *Request) *Response {
	resp := OK([]byte(r.Path + ":" + string(r.Body)))
	if k := r.GetHeader("k"); k != "" {
		resp.SetHeader("k", k+"-back")
	}
	return resp
})

func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	return nc, bufio.NewReader(nc)
}

// readAnswer reads one response and its body.
func readAnswer(t *testing.T, br *bufio.Reader) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return resp, string(body)
}

// assertClosed checks the server has closed the connection: the client
// reads the end of the stream.
func assertClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open: read %d, %v", n, err)
	}
}

func TestServerFraming(t *testing.T) {
	addr := serveLoopback(t, NewServer(echoHandler))
	const big = "X-Pdagent-Big: "
	for _, tc := range []struct {
		name   string
		send   string
		want   []string // status and body of each answer, in order
		closed bool     // the server closes after the answers
	}{
		{"content-length", "POST /a HTTP/1.1\r\nHost: h\r\nX-Pdagent-K: v\r\nContent-Length: 3\r\n\r\nabc", []string{"200 /a:abc k=v-back"}, false},
		{"chunked", "POST /a HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n1\r\nc\r\n0\r\n\r\n", []string{"200 /a:abc k="}, false},
		{"http/1.0", "POST /a HTTP/1.0\r\nContent-Length: 1\r\n\r\nz", []string{"200 /a:z k="}, true},
		{"connection close", "POST /a HTTP/1.1\r\nHost: h\r\nConnection: close\r\nContent-Length: 1\r\n\r\nz", []string{"200 /a:z k="}, true},
		{"pipelined", "POST /1 HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\n\r\naPOST /2 HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\n\r\nb", []string{"200 /1:a k=", "200 /2:b k="}, false},
		{"curl GET", "GET /metrics HTTP/1.1\r\nHost: localhost:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n", []string{"200 /metrics: k="}, false},
		{"malformed request line", "GARBAGE\r\n\r\n", []string{"400"}, true},
		{"header over 1 MiB", "POST /a HTTP/1.1\r\nHost: h\r\n" + big + strings.Repeat("a", maxHeaderBytes+4096) + "\r\n\r\n", []string{"431"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, br := dialRaw(t, addr)
			if _, err := io.WriteString(nc, tc.send); err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.want {
				resp, body := readAnswer(t, br)
				got := fmt.Sprintf("%d %s k=%s", resp.StatusCode, body, resp.Header.Get("X-Pdagent-K"))
				if resp.StatusCode != http.StatusOK {
					got = fmt.Sprint(resp.StatusCode)
				}
				if got != want {
					t.Fatalf("answer %d = %q, want %q", i, got, want)
				}
			}
			if tc.closed {
				assertClosed(t, br)
				return
			}
			// Still open: a further request is answered.
			io.WriteString(nc, "POST /next HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n") //nolint:errcheck
			if _, body := readAnswer(t, br); body != "/next:" {
				t.Fatalf("next answer %q", body)
			}
		})
	}

	t.Run("100-continue", func(t *testing.T) {
		nc, br := dialRaw(t, addr)
		io.WriteString(nc, "POST /c HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n") //nolint:errcheck
		line, err := br.ReadString('\n')
		if err != nil || line != "HTTP/1.1 100 Continue\r\n" {
			t.Fatalf("interim line %q, %v", line, err)
		}
		if blank, _ := br.ReadString('\n'); blank != "\r\n" {
			t.Fatalf("after the interim line: %q", blank)
		}
		io.WriteString(nc, "ok") //nolint:errcheck
		if resp, body := readAnswer(t, br); resp.StatusCode != 200 || body != "/c:ok" {
			t.Fatalf("answer %d %q", resp.StatusCode, body)
		}
	})
}

// TestServerResponseBytes pins the answer bytes, Date aside, to what
// net/http's server writes for the same Response, so either client
// reads either server alike.
func TestServerResponseBytes(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, r *Request) *Response {
		switch r.Path {
		case "/text":
			resp := OKText("hello")
			resp.SetHeader("agent", "ag-1")
			resp.SetHeader("Mailbox-Token", "t0k")
			resp.SetHeader("agent-state", "complete")
			return resp
		case "/frame":
			return OK([]byte("Z\x02\x00\x01\xff\xfe"))
		case "/empty":
			return OK(nil)
		case "/xml":
			return OKText(`<?xml version="1.0"?><mailbox/>`)
		case "/odd":
			return &Response{Status: 599, Body: []byte("odd")}
		}
		return Errorf(StatusNotFound, "no handler for %s", r.Path)
	})
	ours := serveLoopback(t, NewServer(h))
	ref := httptest.NewServer(NewHTTPHandler(h))
	defer ref.Close()
	refAddr := ref.Listener.Addr().String()

	raw := func(addr, req string) string {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		io.WriteString(nc, req)                         //nolint:errcheck
		var got bytes.Buffer
		br := bufio.NewReader(io.TeeReader(nc, &got))
		hreq, _ := http.ReadRequest(bufio.NewReader(strings.NewReader(req)))
		resp, err := http.ReadResponse(br, hreq)
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		io.ReadAll(resp.Body) //nolint:errcheck
		var out []string
		for _, line := range strings.SplitAfter(got.String(), "\r\n") {
			if !strings.HasPrefix(line, "Date: ") {
				out = append(out, line)
			}
		}
		return strings.Join(out, "")
	}
	for _, path := range []string{"/text", "/frame", "/empty", "/xml", "/odd", "/missing"} {
		for _, form := range []string{
			"POST %s HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n",
			"POST %s HTTP/1.1\r\nHost: h\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
			"POST %s HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
			"POST %s HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
		} {
			req := fmt.Sprintf(form, path)
			if got, want := raw(ours, req), raw(refAddr, req); got != want {
				t.Errorf("%q:\n got %q\nwant %q", req, got, want)
			}
		}
	}
}

func TestServerHandlerCtx(t *testing.T) {
	ctxs := make(chan context.Context, 4)
	entered := make(chan struct{}, 4)
	saw := make(chan time.Time, 4)
	release := make(chan struct{})
	srv := NewServer(HandlerFunc(func(ctx context.Context, r *Request) *Response {
		ctxs <- ctx
		if r.Path == "/wait" {
			entered <- struct{}{}
			select {
			case <-ctx.Done():
				saw <- time.Now()
			case <-release:
			}
		}
		return OK([]byte(r.Path + ":" + string(r.Body)))
	}))
	addr := serveLoopback(t, srv)
	watched := func(ctx context.Context) bool {
		x := ctx.(*reqCtx)
		x.mu.Lock()
		defer x.mu.Unlock()
		return x.watched != nil
	}

	t.Run("ends when the handler returns; no watcher unless asked", func(t *testing.T) {
		c := &HTTPClient{}
		if _, err := c.RoundTrip(context.Background(), addr, &Request{Path: "/x"}); err != nil {
			t.Fatal(err)
		}
		ctx := <-ctxs
		if ctx.Err() != context.Canceled {
			t.Fatalf("after the handler: Err = %v", ctx.Err())
		}
		if watched(ctx) {
			t.Fatal("a handler that never asked for Done started a watcher")
		}
		select {
		case <-ctx.Done():
		default:
			t.Fatal("Done open after the handler returned")
		}
	})

	t.Run("a hang-up closes Done", func(t *testing.T) {
		nc, _ := dialRaw(t, addr)
		fmt.Fprintf(nc, emptyPost, "/wait")
		<-entered
		ctx := <-ctxs
		time.Sleep(20 * time.Millisecond) // the handler is parked on Done
		hungUp := time.Now()
		nc.Close()
		select {
		case at := <-saw:
			if d := at.Sub(hungUp); d > 100*time.Millisecond {
				t.Fatalf("Done closed %v after the hang-up", d)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Done still open after the client hung up")
		}
		if !watched(ctx) || ctx.Err() != context.Canceled {
			t.Fatalf("watcher %v, Err %v", watched(ctx), ctx.Err())
		}
	})

	t.Run("a request pipelined behind a parked one is read whole", func(t *testing.T) {
		nc, br := dialRaw(t, addr)
		fmt.Fprintf(nc, emptyPost, "/wait")
		<-entered
		ctx := <-ctxs
		time.Sleep(20 * time.Millisecond)                                                   // the watcher is reading
		io.WriteString(nc, "POST /next HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi") //nolint:errcheck
		select {
		case <-saw:
			t.Fatal("a pipelined request cancelled the parked one")
		case <-time.After(50 * time.Millisecond):
		}
		if ctx.Err() != nil {
			t.Fatalf("parked ctx: %v", ctx.Err())
		}
		close(release)
		for i, want := range []string{"/wait:", "/next:hi"} {
			if resp, body := readAnswer(t, br); resp.StatusCode != 200 || body != want {
				t.Fatalf("answer %d: %d %q, want %q", i, resp.StatusCode, body, want)
			}
		}
	})
}

// blockOn answers "/block" only once release is closed, anything else
// at once.
func blockOn(release chan struct{}) (Handler, chan struct{}) {
	entered := make(chan struct{}, 1)
	return HandlerFunc(func(_ context.Context, r *Request) *Response {
		if r.Path == "/block" {
			entered <- struct{}{}
			<-release
		}
		return OKText("ok")
	}), entered
}

const emptyPost = "POST %s HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n"

func TestServerShutdown(t *testing.T) {
	release := make(chan struct{})
	h, entered := blockOn(release)
	srv := NewServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	idle, idleBr := dialRaw(t, addr)
	fmt.Fprintf(idle, emptyPost, "/x")
	readAnswer(t, idleBr)
	busy, busyBr := dialRaw(t, addr)
	fmt.Fprintf(busy, emptyPost, "/block")
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	assertClosed(t, idleBr)
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Fatal("a dial after Shutdown was accepted")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a handler in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if resp, body := readAnswer(t, busyBr); resp.StatusCode != 200 || body != "ok" || !resp.Close {
		t.Fatalf("in-flight answer %d %q, close %v", resp.StatusCode, body, resp.Close)
	}
	assertClosed(t, busyBr)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestServerShutdownExpiredCtx(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h, entered := blockOn(release)
	srv := NewServer(h)
	addr := serveLoopback(t, srv)
	nc, _ := dialRaw(t, addr)
	fmt.Fprintf(nc, emptyPost, "/block")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the ctx's deadline error", err)
	}
}

// TestBodyLimitAtTheBound: a body of exactly the limit passes and one
// byte more is refused, never cut short — by the server (413, then
// close), by the net/http adapter (413) and by the client (an error).
func TestBodyLimitAtTheBound(t *testing.T) {
	const limit = 1024
	lenHandler := HandlerFunc(func(_ context.Context, r *Request) *Response {
		return OK(bytes.Repeat([]byte("b"), len(r.Body)))
	})
	srv := NewServer(lenHandler)
	srv.maxBody = limit
	addr := serveLoopback(t, srv)

	t.Run("server", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			n    int
			form string
			want int
		}{
			{"content-length at the bound", limit, "cl", 200},
			{"content-length over it", limit + 1, "cl", 413},
			{"chunked at the bound", limit, "chunked", 200},
			{"chunked over it", limit + 1, "chunked", 413},
		} {
			nc, br := dialRaw(t, addr)
			body := strings.Repeat("a", tc.n)
			if tc.form == "cl" {
				fmt.Fprintf(nc, "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s", tc.n, body)
			} else {
				fmt.Fprintf(nc, "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", tc.n, body)
			}
			resp, got := readAnswer(t, br)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
			}
			if tc.want == 200 && len(got) != tc.n {
				t.Fatalf("%s: handler saw %d bytes", tc.name, len(got))
			}
			if tc.want == 413 {
				assertClosed(t, br)
			}
		}
	})

	t.Run("net/http adapter", func(t *testing.T) {
		ref := httptest.NewServer(newHTTPHandler(lenHandler, limit))
		defer ref.Close()
		for _, n := range []int{limit, limit + 1} {
			resp, err := http.Post(ref.URL, "", strings.NewReader(strings.Repeat("a", n)))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if n == limit && (resp.StatusCode != 200 || len(got) != n) {
				t.Fatalf("%d bytes: %d, handler saw %d", n, resp.StatusCode, len(got))
			}
			if n > limit && (resp.StatusCode != 413 || !resp.Close) {
				t.Fatalf("%d bytes: %d, close %v; want 413 and close", n, resp.StatusCode, resp.Close)
			}
		}
	})

	t.Run("client", func(t *testing.T) {
		big := NewServer(lenHandler)
		bigAddr := serveLoopback(t, big)
		c := NewPooledHTTPClient(1)
		c.pool.maxBody = limit
		for _, n := range []int{limit, limit + 1} {
			resp, err := c.RoundTrip(context.Background(), bigAddr, &Request{Path: "/x", Body: make([]byte, n)})
			if n == limit && (err != nil || len(resp.Body) != n) {
				t.Fatalf("%d-byte answer: %v", n, err)
			}
			if n > limit && err == nil {
				t.Fatalf("%d-byte answer over a %d limit read without an error", n, limit)
			}
		}
		// The refused answer's connection was not kept: with a cap of
		// one, the next call needs its slot back.
		if resp, err := c.RoundTrip(context.Background(), bigAddr, &Request{Path: "/x", Body: []byte("1")}); err != nil || resp.Text() != "b" {
			t.Fatalf("after the refused answer: %v", err)
		}
	})
}

// TestServerInterop: net/http's client and this package's client both
// reuse one connection to the server.
func TestServerInterop(t *testing.T) {
	srv := NewServer(echoHandler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	go srv.Serve(cl)                         //nolint:errcheck // ends with Shutdown
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	url := "http://" + ln.Addr().String()

	hc := &http.Client{Transport: &http.Transport{}}
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodPost, url+"/p", strings.NewReader("x"))
		req.Header.Set("X-Pdagent-K", "v")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "/p:x" || resp.Header.Get("X-Pdagent-K") != "v-back" {
			t.Fatalf("net/http client: %q, k %q", body, resp.Header.Get("X-Pdagent-K"))
		}
	}
	c := NewPooledHTTPClient(1)
	for i := 0; i < 3; i++ {
		req := (&Request{Path: "/p", Body: []byte("y")}).SetHeader("k", "w")
		resp, err := c.RoundTrip(context.Background(), url, req)
		if err != nil || resp.Text() != "/p:y" || resp.GetHeader("k") != "w-back" {
			t.Fatalf("HTTPClient: %v %q", err, resp)
		}
	}
	if n := cl.accepted.Load(); n != 2 {
		t.Fatalf("two clients x three requests used %d connections, want 2", n)
	}
}

type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return nc, err
}

// FuzzServeConn feeds arbitrary client bytes to one server connection
// over net.Pipe. The server does not panic, allocates in proportion to
// the bytes that arrived, and hands its handler exactly the requests
// net/http's reader finds in them, each read whole.
func FuzzServeConn(f *testing.F) {
	for _, s := range []string{
		"POST /a HTTP/1.1\r\nHost: h\r\nX-Pdagent-K: v\r\nContent-Length: 3\r\n\r\nabc",
		"POST /a HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n0\r\n\r\n",
		"POST /1 HTTP/1.1\r\nContent-Length: 1\r\n\r\naPOST /2 HTTP/1.1\r\nContent-Length: 1\r\n\r\nb",
		"POST /a HTTP/1.0\r\nContent-Length: 1\r\n\r\nz",
		"POST /a HTTP/1.1\r\nConnection: close\r\n\r\nPOST /b HTTP/1.1\r\n\r\n",
		"POST /c HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok",
		"GET /metrics HTTP/1.1\r\nHost: h\r\n\r\nHEAD / HTTP/1.1\r\n\r\n",
		"POST /a HTTP/1.1\r\nContent-Length: 60000000\r\n\r\nabc",
		"POST /a HTTP/1.1\r\nContent-Length: 300\r\n\r\n" + strings.Repeat("x", 300),
		"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"GARBAGE\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	const limit = 256
	f.Fuzz(func(t *testing.T, data []byte) {
		// What net/http's reader finds: the requests a handler may see.
		var want []string
		var reqs []*http.Request
		ref := bufio.NewReader(bytes.NewReader(data))
		for {
			hreq, err := http.ReadRequest(ref)
			if err != nil {
				break
			}
			body, err := readBody(hreq.Body, hreq.ContentLength, limit)
			if err != nil {
				break
			}
			want = append(want, describe(hreq.URL.Path, pdagentHeaders(hreq.Header), body))
			reqs = append(reqs, hreq)
			if hreq.Close {
				break
			}
		}

		var mu sync.Mutex
		var got []string
		srv := NewServer(HandlerFunc(func(_ context.Context, r *Request) *Response {
			mu.Lock()
			got = append(got, describe(r.Path, r.Header, r.Body))
			mu.Unlock()
			return OKText("ok")
		}))
		srv.maxBody = limit
		cli, sc := net.Pipe()
		c := &serverConn{srv: srv, nc: sc, held: -1}
		srv.conns[c] = false
		served := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go func() {
			c.serve()
			close(served)
		}()
		go cli.Write(data) //nolint:errcheck // ends when the pipe closes
		// Read answers until there is one per expected request or the
		// server closes, then hang up.
		cli.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		br := bufio.NewReader(cli)
		for answered := 0; answered < len(want); {
			resp, err := http.ReadResponse(br, reqs[answered]) // a HEAD's answer has no body
			if err != nil {
				break
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			if resp.StatusCode != http.StatusContinue {
				answered++
			}
		}
		cli.Close()
		<-served
		runtime.ReadMemStats(&after)

		// The constant covers the connection's buffers and whole spans
		// the allocator counts at once; the factor covers the smallest
		// requests (≈ 16 B, each ≈ 4 KB of request and response
		// structures on both ends). A buffer sized by a declared length
		// rather than by arrived bytes breaks it.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); alloc > bound {
			t.Fatalf("%d bytes in: allocated %d, bound %d", len(data), alloc, bound)
		}
		if len(got) != len(want) {
			t.Fatalf("handler saw %d requests, net/http reads %d:\n got %q\nwant %q", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("request %d: handler saw %q, net/http reads %q", i, got[i], want[i])
			}
		}
	})
}

func describe(path string, h map[string]string, body []byte) string {
	return fmt.Sprintf("%s %v %q", path, h, body)
}

// TestServerConcurrentClients: many connections at once, handlers that
// ask for Done from goroutines of their own (some after returning), and
// a Shutdown once they are done: every request is answered, and the
// server is left with no connection.
func TestServerConcurrentClients(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, r *Request) *Response {
		if len(r.Body)%2 == 1 {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					select {
					case <-ctx.Done():
					default:
					}
				}()
			}
			go func() { <-ctx.Done() }() // outlives the handler
			wg.Wait()
		}
		return OK(r.Body)
	}))
	addr := serveLoopback(t, srv)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewPooledHTTPClient(2)
			for i := 0; i < 50; i++ {
				body := bytes.Repeat([]byte{'x'}, g+i)
				resp, err := c.RoundTrip(context.Background(), addr, &Request{Path: "/x", Body: body})
				if err != nil || !bytes.Equal(resp.Body, body) {
					t.Errorf("client %d request %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	srv.mu.Lock()
	n := len(srv.conns)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d connections left after Shutdown", n)
	}
}
