package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"time"
)

// headerPrefix namespaces PDAgent metadata within real HTTP headers.
const headerPrefix = "X-Pdagent-"

// maxBody caps a request body the server reads and a response body
// the client reads. A longer body is refused, never cut short.
const maxBody = 64 << 20

// errBodyTooLarge refuses a body over the limit.
var errBodyTooLarge = errors.New("body over the size limit")

// NewHTTPHandler adapts a transport.Handler to net/http. The daemons
// serve through Server; this adapter remains because the benchmark's
// traced pass builds its in-process cluster on net/http servers.
func NewHTTPHandler(h Handler) http.Handler { return newHTTPHandler(h, maxBody) }

func newHTTPHandler(h Handler, limit int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r.Body, r.ContentLength, limit)
		if err == errBodyTooLarge {
			w.Header().Set("Connection", "close")
			http.Error(w, fmt.Sprintf("request body over %d bytes", limit), http.StatusRequestEntityTooLarge)
			return
		} else if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp := h.Serve(r.Context(), &Request{Path: r.URL.Path, Header: pdagentHeaders(r.Header), Body: body})
		for k, v := range resp.Header {
			w.Header().Set(headerPrefix+k, v)
		}
		w.WriteHeader(resp.Status)
		w.Write(resp.Body) //nolint:errcheck // best-effort reply
	})
}

// readBody reads a whole body of at most limit bytes; declared is its
// Content-Length, and r then ends after it, or -1. A longer body is
// errBodyTooLarge, read no further than limit+1 bytes. The buffer grows
// with the bytes that arrive, whatever was declared.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, errBodyTooLarge
	}
	size := 512
	if declared >= 0 {
		// Room for the read that finds the end: one allocation.
		size = int(min(declared, 64<<10)) + 1
	} else {
		r = io.LimitReader(r, limit+1)
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if int64(len(b)) > limit {
		return nil, errBodyTooLarge
	}
	return b, nil
}

// pdagentHeaders returns h's X-Pdagent-* fields, the first value of
// each, keyed by the rest of the name; nil when there are none.
func pdagentHeaders(h http.Header) map[string]string {
	var out map[string]string
	for k, vs := range h {
		if strings.HasPrefix(k, headerPrefix) && len(vs) > 0 {
			if out == nil {
				out = make(map[string]string)
			}
			out[strings.ToLower(k[len(headerPrefix):])] = vs[0]
		}
	}
	return out
}

// Limits of the client side.
const (
	// requestTimeout bounds a round trip, waiting for a connection
	// included, when ctx has no earlier deadline.
	requestTimeout = 30 * time.Second
	dialTimeout    = 10 * time.Second
	tcpKeepAlive   = 30 * time.Second
	// idleTimeout is how long an unused pooled connection is kept.
	idleTimeout = 90 * time.Second
	// maxHeaderBytes bounds a response's status line and headers.
	maxHeaderBytes = 1 << 20
)

// HTTPClient is a RoundTripper over real HTTP/1.1. Addresses are
// "host:port" or "http://host:port".
//
// A round trip writes its request in one vectored write — a head built
// in a buffer the connection reuses, then the caller's body, not copied
// — and reads the answer, both on the caller's goroutine, over a
// keep-alive connection from a per-destination pool; nothing is handed
// to another goroutine. An answer whose head is of the shape Server
// writes is read with readHead, any other with http.ReadResponse. A
// request is never re-sent: once its bytes may have reached the
// server, a failure is the caller's to judge (the ATP watermark makes a
// transfer's retry idempotent). The zero value shares one
// package-level pool with no per-destination cap; NewPooledHTTPClient
// makes a client with a capped pool of its own.
type HTTPClient struct {
	pool *connPool
}

var defaultPool = newConnPool(math.MaxInt)

// RoundTrip implements RoundTripper.
func (c *HTTPClient) RoundTrip(ctx context.Context, addr string, req *Request) (*Response, error) {
	p := c.pool
	if p == nil {
		p = defaultPool
	}
	resp, err := p.roundTrip(ctx, addr, req)
	if err != nil {
		return nil, fmt.Errorf("transport: %s%s: %w", addr, req.Path, err)
	}
	return resp, nil
}

func (p *connPool) roundTrip(ctx context.Context, addr string, req *Request) (*Response, error) {
	dialAddr, host, err := splitAddr(addr)
	if err != nil {
		return nil, err
	}
	if err := checkRequest(req); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(p.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	cn, err := p.get(ctx, dialAddr, deadline)
	if err != nil {
		return nil, err
	}
	head, err := appendRequestHead(cn.head[:0], host, req)
	if err != nil {
		p.put(cn)
		return nil, err
	}
	cn.head = head
	resp, keep, err := cn.roundTrip(ctx, head, req.Body)
	if keep {
		p.put(cn)
	} else {
		p.discard(cn)
	}
	return resp, err
}

// splitAddr returns the address to dial and the Host header for an
// "http://host[:port]" or bare "host[:port]" address.
func splitAddr(addr string) (dialAddr, host string, err error) {
	host = addr
	if scheme, rest, ok := strings.Cut(addr, "://"); ok {
		if !strings.EqualFold(scheme, "http") {
			return "", "", fmt.Errorf("unsupported scheme %q", scheme)
		}
		host = rest
	}
	if host == "" || strings.ContainsAny(host, "/?#@ ") || !validValue(host) {
		return "", "", fmt.Errorf("invalid address %q", addr)
	}
	if _, _, err := net.SplitHostPort(host); err != nil {
		return net.JoinHostPort(strings.Trim(host, "[]"), "80"), host, nil
	}
	return host, host, nil
}

// checkRequest refuses a request whose path, header name or value
// could break the framing: CR, LF, other controls; a space in the path
// or name.
func checkRequest(req *Request) error {
	for i := 0; i < len(req.Path); i++ {
		if c := req.Path[i]; c <= ' ' || c == 0x7f {
			return fmt.Errorf("invalid path %q", req.Path)
		}
	}
	return checkHeaders(req.Header)
}

// appendRequestHead appends the head of a checked request as a POST to
// host: request line, Host, User-Agent, Content-Length, the X-Pdagent-*
// headers sorted by name and the blank line.
func appendRequestHead(b []byte, host string, req *Request) ([]byte, error) {
	path := req.Path
	if path == "" {
		path = "/"
	}
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(req.Body)), 10)
	b = append(b, "\r\n"...)
	b, err := appendHeaders(b, req.Header)
	if err != nil {
		return nil, err
	}
	return append(b, "\r\n"...), nil
}

// appendHeaders appends h as X-Pdagent-* fields sorted by name. A name
// or value that could break the framing (CR, LF, other controls; a
// space in the name) is refused.
func appendHeaders(b []byte, h map[string]string) ([]byte, error) {
	if err := checkHeaders(h); err != nil {
		return nil, err
	}
	var arr [8]string
	keys := arr[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = append(b, textproto.CanonicalMIMEHeaderKey(headerPrefix+k)...)
		b = append(b, ": "...)
		b = append(b, strings.Trim(h[k], " \t")...)
		b = append(b, "\r\n"...)
	}
	return b, nil
}

// checkHeaders refuses a header name or value that could break the
// framing.
func checkHeaders(h map[string]string) error {
	for k, v := range h {
		if !validName(k) {
			return fmt.Errorf("invalid header name %q", k)
		}
		if !validValue(v) {
			return fmt.Errorf("invalid value for header %q", k)
		}
	}
	return nil
}

// validName reports whether k is an HTTP token (RFC 9110 §5.6.2).
func validName(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return true
}

// validValue reports whether v holds no control character but tab.
func validValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// conn is one pooled keep-alive connection.
type conn struct {
	addr    string // the dial address: the pool's key
	nc      net.Conn
	lr      io.LimitedReader // nc, cut to maxHeaderBytes while a header is read
	br      *bufio.Reader    // reads lr
	maxBody int64            // see maxBody
	idleAt  time.Time        // when the pool took it back
	body    lengthReader     // a body readHead's head declared
	// head is the last request head's buffer, reused; wv and iov are
	// the vectored write of a request, head and body.
	head []byte
	iov  [2][]byte
	wv   net.Buffers
}

func newConn(addr string, nc net.Conn, maxBody int64) *conn {
	c := &conn{addr: addr, nc: nc, lr: io.LimitedReader{R: nc, N: math.MaxInt64}, maxBody: maxBody}
	c.br = bufio.NewReader(&c.lr)
	return c
}

// roundTrip writes one encoded request, its parts in one vectored
// write, and reads its response. keep
// reports whether the connection may carry another request: the
// response was read whole, nothing followed it, the server did not ask
// to close and ctx did not abort the I/O. The connection's deadline is
// already set.
func (c *conn) roundTrip(ctx context.Context, wire ...[]byte) (resp *Response, keep bool, err error) {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) }) //nolint:errcheck // best effort: a closed conn is aborted anyway
		defer func() {
			if !stop() {
				keep = false
				if err != nil {
					err = fmt.Errorf("%w: %v", ctx.Err(), err)
				}
			}
		}()
	}
	c.wv = append(c.iov[:0], wire...)
	_, err = c.wv.WriteTo(c.nc)
	c.iov, c.wv = [2][]byte{}, nil // hold no body past its request
	if err != nil {
		return nil, false, err
	}
	return c.readResponse()
}

// readResponse reads one response from the connection: with readHead
// when its head is of the shape Server writes, else with
// http.ReadResponse.
func (c *conn) readResponse() (*Response, bool, error) {
	c.lr.N = maxHeaderBytes
	var h head
	if _, err := c.br.Peek(1); err == nil && readHead(c.br, true, &h) {
		c.lr.N = math.MaxInt64
		c.body = lengthReader{r: c.br, n: h.length}
		body, err := readBody(&c.body, h.length, c.maxBody)
		if err != nil {
			return nil, false, fmt.Errorf("reading response body: %w", err)
		}
		return &Response{Status: h.status, Header: h.fields, Body: body}, !h.closing && c.br.Buffered() == 0, nil
	}
	hresp, err := http.ReadResponse(c.br, nil)
	c.lr.N = math.MaxInt64
	if err != nil {
		return nil, false, err
	}
	body, err := readBody(hresp.Body, hresp.ContentLength, c.maxBody)
	if err != nil {
		return nil, false, fmt.Errorf("reading response body: %w", err)
	}
	resp := &Response{Status: hresp.StatusCode, Header: pdagentHeaders(hresp.Header), Body: body}
	return resp, !hresp.Close && c.br.Buffered() == 0, nil
}
