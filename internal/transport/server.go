package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves a Handler over HTTP/1.1 keep-alive connections (the
// Tomcat role in the paper), one goroutine per connection. That
// goroutine reads a request with readHead, straight into the Request,
// when its head is already buffered and of the plain shape HTTPClient
// writes; any other it reads with http.ReadRequest, so the framing
// rules are net/http's (Content-Length, chunked, HTTP/1.0, Connection:
// close, a 1 MiB header cap). It runs the handler and writes the answer
// in one write. Like net/http's server as the daemons configured it, it
// sets no read or idle timeout.
//
// A handler's ctx ends when the handler returns, or when the client
// hangs up. The hang-up is watched for only once something calls
// ctx.Done(), so a handler that never waits on ctx costs no goroutine
// and no deadline change.
type Server struct {
	handler Handler
	maxBody int64 // see maxBody; tests shorten it
	shut    atomic.Bool
	// lastDate is the Date value of the second an answer was last
	// written.
	lastDate atomic.Pointer[dateLine]

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]bool // true while a request is in hand
}

// NewServer returns a server for h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, maxBody: maxBody, listeners: make(map[net.Listener]struct{}), conns: make(map[*serverConn]bool)}
}

// ListenAndServe listens on the TCP address addr and serves it.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln and serves each on a goroutine of
// its own. After Shutdown it returns http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shut.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if s.shut.Load() { // Shutdown has closed ln
			if nc != nil {
				nc.Close()
			}
			return http.ErrServerClosed
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of file descriptors and the like: wait and retry, as
			// net/http does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := &serverConn{srv: s, nc: nc, held: -1}
		if !s.track(c, false) {
			nc.Close()
			continue
		}
		go c.serve()
	}
}

// Shutdown stops accepting, closes idle connections and waits until
// every connection has finished its request and closed, or until ctx
// ends, whose error it then returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shut.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		for c, busy := range s.conns {
			if !busy {
				c.nc.Close()
			}
		}
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// track records whether c has a request in hand; it reports false, and
// records nothing, once the server is shutting down.
func (s *Server) track(c *serverConn, busy bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shut.Load() {
		return false
	}
	s.conns[c] = busy
	return true
}

// serverConn is one accepted connection.
type serverConn struct {
	srv  *Server
	nc   net.Conn
	lr   io.LimitedReader // reads the conn; cut while a header is read
	br   *bufio.Reader    // reads lr
	held int              // a byte the hang-up watcher read first, or -1
	wbuf []byte           // the last answer's bytes, reused
	body lengthReader     // a body readHead's head declared
}

// Read hands out the byte the hang-up watcher read, then the socket's.
func (c *serverConn) Read(p []byte) (int, error) {
	if c.held >= 0 && len(p) > 0 {
		p[0], c.held = byte(c.held), -1
		return 1, nil
	}
	return c.nc.Read(p)
}

func (c *serverConn) serve() {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("transport: panic serving %v: %v\n%s", c.nc.RemoteAddr(), r, debug.Stack())
		}
		c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	c.lr.R = c
	c.br = bufio.NewReader(&c.lr)
	for {
		// net/http's allowance: the header cap plus one buffer.
		c.lr.N = maxHeaderBytes + 4096
		if _, err := c.br.Peek(1); err != nil || !c.srv.track(c, true) {
			return
		}
		if !c.serveOne() || !c.srv.track(c, false) {
			return
		}
	}
}

// serveOne reads one request and answers it. It reports whether the
// connection can carry another.
func (c *serverConn) serveOne() bool {
	var h head
	if !readHead(c.br, false, &h) {
		return c.serveNetHTTP()
	}
	c.lr.N = math.MaxInt64
	c.body = lengthReader{r: c.br, n: max(h.length, 0)}
	body, err := readBody(&c.body, c.body.n, c.srv.maxBody)
	if err != nil {
		return c.refuseBody(err, true, false)
	}
	return c.run(&Request{Path: h.path, Header: h.fields, Body: body}, true, false, h.closing)
}

// serveNetHTTP reads with http.ReadRequest a request readHead did not
// take, and answers it.
func (c *serverConn) serveNetHTTP() bool {
	hreq, err := http.ReadRequest(c.br)
	if err != nil {
		if c.lr.N <= 0 {
			return c.refuse(Errorf(http.StatusRequestHeaderFieldsTooLarge, "request header over %d bytes", maxHeaderBytes), true, false)
		} else if err != io.EOF {
			return c.refuse(Errorf(StatusBadRequest, "malformed request: %v", err), true, false)
		}
		return false
	}
	c.lr.N = math.MaxInt64
	limit := c.srv.maxBody
	is11, isHead := hreq.ProtoAtLeast(1, 1), hreq.Method == http.MethodHead
	if hreq.ContentLength != 0 && hreq.ContentLength <= limit && is11 && strings.EqualFold(hreq.Header.Get("Expect"), "100-continue") {
		if _, err := io.WriteString(c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return false
		}
	}
	body, err := readBody(hreq.Body, hreq.ContentLength, limit)
	if err != nil {
		return c.refuseBody(err, is11, isHead)
	}
	return c.run(&Request{Path: hreq.URL.Path, Header: pdagentHeaders(hreq.Header), Body: body}, is11, isHead, hreq.Close)
}

// run hands req to the handler and answers it.
func (c *serverConn) run(req *Request, is11, isHead, closing bool) bool {
	x := &reqCtx{c: c}
	resp := c.srv.handler.Serve(x, req)
	x.finish()
	return c.answer(resp, is11, isHead, closing)
}

// refuseBody refuses a request whose body readBody could not read.
func (c *serverConn) refuseBody(err error, is11, isHead bool) bool {
	if err == errBodyTooLarge {
		return c.refuse(Errorf(http.StatusRequestEntityTooLarge, "request body over %d bytes", c.srv.maxBody), is11, isHead)
	}
	return c.refuse(Errorf(StatusBadRequest, "reading body: %v", err), is11, isHead)
}

// refuse answers a request the server will not read further and ends
// the connection as net/http does: close the write side and wait
// before closing, so bytes the client is still sending do not reset
// the connection before it has read the answer.
func (c *serverConn) refuse(resp *Response, is11, isHead bool) bool {
	c.answer(resp, is11, isHead, true)
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		time.Sleep(500 * time.Millisecond)
	}
	return false
}

// answer writes resp in one write, in HTTP/1.1 form or 1.0 and without
// the body for a HEAD. It reports whether the write succeeded and the
// connection stays open: not when closing is set or the server is
// shutting down.
func (c *serverConn) answer(resp *Response, is11, isHead, closing bool) bool {
	closing = closing || c.srv.shut.Load()
	date := c.srv.date()
	b, err := appendResponse(c.wbuf[:0], resp, date, is11, closing, isHead)
	if err != nil {
		b, _ = appendResponse(c.wbuf[:0], Errorf(StatusServerError, "%v", err), date, is11, closing, isHead)
	}
	_, err = c.nc.Write(b)
	if cap(b) <= 64<<10 {
		c.wbuf = b
	}
	return err == nil && !closing
}

// appendResponse appends resp as net/http's server writes it: status
// line, the X-Pdagent-* headers sorted by name, date, Content-Length,
// a sniffed Content-Type, Connection where it is not the protocol's
// default, then the body (none for a HEAD).
func appendResponse(b []byte, resp *Response, date []byte, is11, closing, head bool) ([]byte, error) {
	if is11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	if text := http.StatusText(resp.Status); text != "" {
		b = strconv.AppendInt(b, int64(resp.Status), 10)
		b = append(b, ' ')
		b = append(b, text...)
	} else {
		b = fmt.Appendf(b, "%03d status code %d", resp.Status, resp.Status)
	}
	b = append(b, "\r\n"...)
	b, err := appendHeaders(b, resp.Header)
	if err != nil {
		return nil, err
	}
	b = append(b, "Date: "...)
	b = append(b, date...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(resp.Body)), 10)
	b = append(b, "\r\n"...)
	if len(resp.Body) > 0 {
		b = append(b, "Content-Type: "...)
		b = append(b, http.DetectContentType(resp.Body)...)
		b = append(b, "\r\n"...)
	}
	switch {
	case closing && is11:
		b = append(b, "Connection: close\r\n"...)
	case !closing && !is11:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	b = append(b, "\r\n"...)
	if head {
		return b, nil
	}
	return append(b, resp.Body...), nil
}

// dateLine is the Date value of one second.
type dateLine struct {
	sec int64
	b   []byte
}

// date returns the current time as http.TimeFormat, formatted at most
// once a second.
func (s *Server) date() []byte {
	now := time.Now()
	d := s.lastDate.Load()
	if d == nil || d.sec != now.Unix() {
		d = &dateLine{sec: now.Unix(), b: now.UTC().AppendFormat(nil, http.TimeFormat)}
		s.lastDate.Store(d)
	}
	return d.b
}

// reqCtx is a handler's ctx: no deadline, no values, cancelled when the
// handler returns or, once Done has been called, when the client hangs
// up.
type reqCtx struct {
	c       *serverConn
	mu      sync.Mutex
	done    chan struct{}
	err     error
	watched chan struct{} // closed when the hang-up watcher stops; nil if none started
}

func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *reqCtx) Value(any) any               { return nil }

func (x *reqCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// Done starts the hang-up watcher on its first call while the handler
// runs.
func (x *reqCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done == nil {
		x.done = make(chan struct{})
		if x.err != nil {
			close(x.done)
		} else {
			x.watched = make(chan struct{})
			go x.watch()
		}
	}
	return x.done
}

// watch reads the socket while the handler runs. A byte is the start
// of a pipelined request, kept for the next read; an error other than
// finish's deadline is the client hanging up.
func (x *reqCtx) watch() {
	defer close(x.watched)
	var b [1]byte
	n, err := x.c.nc.Read(b[:])
	if n == 1 {
		x.c.held = int(b[0])
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		x.cancel()
	}
}

func (x *reqCtx) cancel() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err == nil {
		x.err = context.Canceled
		if x.done != nil {
			close(x.done)
		}
	}
}

// finish ends the ctx as its handler returns and stops the watcher, if
// one started, before the connection is read again.
func (x *reqCtx) finish() {
	x.cancel()
	x.mu.Lock()
	w := x.watched
	x.mu.Unlock()
	if w != nil {
		x.c.nc.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck // a closed conn stops the read anyway
		<-w
		x.c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck // the next read fails on a broken conn
	}
}
