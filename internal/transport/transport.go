// Package transport abstracts the request/response channel between the
// PDAgent platform, gateways and mobile-agent-server hosts.
//
// The paper's components talk HTTP (handheld → Tomcat gateway → MAS
// hosts). Everything above this package is written against the small
// Handler/RoundTripper pair defined here, so the same device, gateway
// and MAS code runs over two interchangeable fabrics:
//
//   - real HTTP/1.1 over sockets, this package's Server and HTTPClient
//     (daemons, integration tests), and
//   - the simulated network in internal/netsim (deterministic
//     experiments with virtual time).
//
// Both HTTP halves are the package's own and run on one goroutine per
// exchange. Server reads each request, runs the handler and writes the
// answer on its connection's goroutine, watching for a client hang-up
// only when a handler waits on ctx.Done(). HTTPClient writes a request
// and reads the answer on the caller's goroutine over a pooled
// keep-alive connection. Each reads a head of the one shape the other
// writes (a POST or GET of a plain path, or a status with a
// Content-Length; X-Pdagent-* fields) itself, and leaves any other to
// net/http's readers (http.ReadRequest, http.ReadResponse), so curl and
// net/http talk to them unchanged. NewPooledHTTPClient gives a client its own pool with
// a per-destination connection cap, and Pooled wraps any RoundTripper
// with a per-destination in-flight request limit (backpressure under
// bursts) — see DESIGN.md §5.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Request is one message from a client to a host.
type Request struct {
	// Path routes the request within the destination host, e.g.
	// "/pdagent/dispatch".
	Path string
	// Header carries small metadata items.
	Header map[string]string
	// Body is the payload (a Packed Information document, an agent
	// transfer envelope, ...).
	Body []byte
}

// Response is the host's reply.
type Response struct {
	Status int
	Header map[string]string
	Body   []byte
}

// Status codes (a compatible subset of HTTP's).
const (
	StatusOK           = 200
	StatusBadRequest   = 400
	StatusUnauthorized = 401
	StatusForbidden    = 403
	StatusNotFound     = 404
	StatusConflict     = 409
	StatusGone         = 410
	// StatusPreconditionFailed answers a dispatch that names its code
	// by a hash the gateway does not hold: the device re-sends the same
	// upload carrying the code.
	StatusPreconditionFailed = 412
	// StatusTooManyRequests signals a per-tenant rate or quota
	// refusal: unlike StatusUnavailable (the member is overloaded),
	// the condition is the caller's own doing, so device sessions
	// treat it as transient and back off per the retry-after header.
	StatusTooManyRequests = 429
	StatusServerError     = 500
	StatusUnavailable     = 503
)

// Handler processes requests addressed to one host.
type Handler interface {
	Serve(ctx context.Context, req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req *Request) *Response

// Serve implements Handler.
func (f HandlerFunc) Serve(ctx context.Context, req *Request) *Response {
	return f(ctx, req)
}

// RoundTripper sends a request to a named host and returns its reply.
type RoundTripper interface {
	RoundTrip(ctx context.Context, addr string, req *Request) (*Response, error)
}

// Header keys are normalised to lower case so values survive the real
// HTTP adapter's canonicalisation unchanged.

// SetHeader sets a header on the request, allocating the map if needed,
// and returns the request for chaining.
func (r *Request) SetHeader(key, value string) *Request {
	if r.Header == nil {
		r.Header = make(map[string]string)
	}
	r.Header[strings.ToLower(key)] = value
	return r
}

// GetHeader returns a header value or "".
func (r *Request) GetHeader(key string) string { return r.Header[strings.ToLower(key)] }

// SetHeader sets a header on the response, allocating the map if
// needed, and returns the response for chaining.
func (r *Response) SetHeader(key, value string) *Response {
	if r.Header == nil {
		r.Header = make(map[string]string)
	}
	r.Header[strings.ToLower(key)] = value
	return r
}

// GetHeader returns a header value or "".
func (r *Response) GetHeader(key string) string { return r.Header[strings.ToLower(key)] }

// Size returns the approximate on-the-wire size of the request in
// bytes: body plus path and headers. Used by the simulated network's
// bandwidth model.
func (r *Request) Size() int {
	n := len(r.Path) + len(r.Body)
	for k, v := range r.Header {
		n += len(k) + len(v) + 4
	}
	return n
}

// Size returns the approximate wire size of the response.
func (r *Response) Size() int {
	n := 8 + len(r.Body) // status line
	for k, v := range r.Header {
		n += len(k) + len(v) + 4
	}
	return n
}

// OK builds a 200 response with the given body.
func OK(body []byte) *Response {
	return &Response{Status: StatusOK, Body: body}
}

// OKText builds a 200 response with a text body.
func OKText(s string) *Response { return OK([]byte(s)) }

// Errorf builds an error response with a formatted text body.
func Errorf(status int, format string, args ...any) *Response {
	return &Response{Status: status, Body: []byte(fmt.Sprintf(format, args...))}
}

// IsOK reports whether the response carries a success status.
func (r *Response) IsOK() bool { return r.Status == StatusOK }

// Text returns the body as a string.
func (r *Response) Text() string { return string(r.Body) }

// Err converts a non-OK response into an error; nil for OK responses.
func (r *Response) Err() error {
	if r.IsOK() {
		return nil
	}
	return &StatusError{Status: r.Status, Body: r.Text()}
}

// StatusError is the error form of a non-OK response.
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("transport: status %d: %s", e.Status, e.Body)
}

// MarkNotDelivered wraps a round-trip error to assert that the request
// provably never reached the destination handler (connection refused,
// host down, request lost before delivery). Callers deciding whether a
// failed request is safe to REPLAY ELSEWHERE (e.g. the cluster's
// dispatch reroute) must only do so when NotDelivered reports true —
// any other failure is ambiguous: the destination may have processed
// the request and only the response was lost, so a replay would
// double-execute.
func MarkNotDelivered(err error) error {
	if err == nil {
		return nil
	}
	return &notDeliveredError{err}
}

type notDeliveredError struct{ err error }

func (e *notDeliveredError) Error() string             { return e.err.Error() }
func (e *notDeliveredError) Unwrap() error             { return e.err }
func (e *notDeliveredError) RequestNotDelivered() bool { return true }

// NotDelivered reports whether err carries the MarkNotDelivered
// guarantee anywhere in its chain.
func NotDelivered(err error) bool {
	var nd interface{ RequestNotDelivered() bool }
	return errors.As(err, &nd) && nd.RequestNotDelivered()
}

// Mux routes requests by path. Exact matches win; otherwise the longest
// registered prefix ending in "/" matches.
type Mux struct {
	exact  map[string]Handler
	prefix map[string]Handler
}

// NewMux returns an empty router.
func NewMux() *Mux {
	return &Mux{exact: make(map[string]Handler), prefix: make(map[string]Handler)}
}

// Handle registers a handler. Patterns ending in "/" match by prefix.
func (m *Mux) Handle(pattern string, h Handler) {
	if strings.HasSuffix(pattern, "/") {
		m.prefix[pattern] = h
		return
	}
	m.exact[pattern] = h
}

// HandleFunc registers a handler function.
func (m *Mux) HandleFunc(pattern string, f func(context.Context, *Request) *Response) {
	m.Handle(pattern, HandlerFunc(f))
}

// Serve implements Handler.
func (m *Mux) Serve(ctx context.Context, req *Request) *Response {
	if h, ok := m.exact[req.Path]; ok {
		return h.Serve(ctx, req)
	}
	best := ""
	for p := range m.prefix {
		if strings.HasPrefix(req.Path, p) && len(p) > len(best) {
			best = p
		}
	}
	if best != "" {
		return m.prefix[best].Serve(ctx, req)
	}
	return Errorf(StatusNotFound, "no handler for %s", req.Path)
}

// Patterns returns all registered patterns, sorted; useful in tests and
// debug endpoints.
func (m *Mux) Patterns() []string {
	var out []string
	for p := range m.exact {
		out = append(out, p)
	}
	for p := range m.prefix {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
