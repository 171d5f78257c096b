package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestReadHeadTakesOwnHeads: the heads this package writes, request and
// answer, are the ones readHead takes, and it reads them as net/http
// does.
func TestReadHeadTakesOwnHeads(t *testing.T) {
	req := &Request{Path: "/pdagent/dispatch", Body: []byte("payload")}
	req.SetHeader("mailbox-token", "t0k").SetHeader("Ack", "7").SetHeader("agent", " ag-1 ")
	wire, err := appendRequest(nil, "localhost:8080", req)
	if err != nil {
		t.Fatal(err)
	}
	var h head
	br := bufio.NewReader(bytes.NewReader(wire))
	br.Peek(1) //nolint:errcheck // fills the buffer
	if !readHead(br, false, &h) {
		t.Fatalf("request head not taken: %q", wire)
	}
	want := map[string]string{"mailbox-token": "t0k", "ack": "7", "agent": "ag-1"}
	if h.path != req.Path || h.length != int64(len(req.Body)) || h.closing || !maps.Equal(h.fields, want) {
		t.Fatalf("request head read as %+v", h)
	}
	if rest, _ := io.ReadAll(br); string(rest) != "payload" {
		t.Fatalf("after the head: %q", rest)
	}

	resp := OKText("hello").SetHeader("agent", "ag-1").SetHeader("Mailbox-Token", "t0k")
	for _, tc := range []struct{ is11, closing, ok bool }{{true, false, true}, {true, true, true}, {false, false, false}} {
		wire, err := appendResponse(nil, resp, []byte("Sun, 06 Nov 1994 08:49:37 GMT"), tc.is11, tc.closing, false)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(bytes.NewReader(wire))
		br.Peek(1) //nolint:errcheck // fills the buffer
		if got := readHead(br, true, &h); got != tc.ok {
			t.Fatalf("is11 %v: taken %v, want %v", tc.is11, got, tc.ok)
		}
		if !tc.ok {
			if br.Buffered() != len(wire) {
				t.Fatalf("a head not taken consumed %d bytes", len(wire)-br.Buffered())
			}
			continue
		}
		want := map[string]string{"agent": "ag-1", "mailbox-token": "t0k"}
		if h.status != 200 || h.length != 5 || h.closing != tc.closing || !maps.Equal(h.fields, want) {
			t.Fatalf("answer head read as %+v", h)
		}
	}
}

// TestServerMixedHeads: one connection carries a request readHead
// takes, a chunked one net/http reads, another readHead takes and one
// whose head arrives in two writes; each is answered, in order.
func TestServerMixedHeads(t *testing.T) {
	addr := serveLoopback(t, NewServer(echoHandler))
	nc, br := dialRaw(t, addr)
	for i, part := range []string{
		"POST /1 HTTP/1.1\r\nHost: h\r\nX-Pdagent-K: a\r\nContent-Length: 1\r\n\r\nx" +
			"POST /2 HTTP/1.1\r\nHost: h\r\nX-Pdagent-K: b\r\nTransfer-Encoding: chunked\r\n\r\n1\r\ny\r\n0\r\n\r\n" +
			"POST /3 HTTP/1.1\r\nHost: h\r\nX-Pdagent-K: c\r\nContent-Length: 1\r\n\r\nz",
		"POST /4 HTTP/1.1\r\nHost: h\r\nX-Pdag",
		"ent-K: d\r\nContent-Length: 1\r\n\r\nw",
	} {
		if i > 0 {
			time.Sleep(20 * time.Millisecond) // the server reads the parts apart
		}
		if _, err := io.WriteString(nc, part); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"/1:x a-back", "/2:y b-back", "/3:z c-back", "/4:w d-back"} {
		resp, body := readAnswer(t, br)
		if got := fmt.Sprintf("%s %s", body, resp.Header.Get("X-Pdagent-K")); resp.StatusCode != http.StatusOK || got != want {
			t.Fatalf("answer %d %q, want %q", resp.StatusCode, got, want)
		}
	}
}

// TestReadHeadEdges: heads at the edges of the narrow shape are either
// taken and read as net/http reads them, or left whole to net/http.
func TestReadHeadEdges(t *testing.T) {
	for _, tc := range []struct {
		name, head string
		response   bool
		taken      bool
	}{
		{"plain", "POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\n", false, true},
		{"GET without length", "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n", false, true},
		{"case-mixed fields, first wins", "POST /a HTTP/1.1\r\nx-PDAGENT-k: one\r\nX-Pdagent-K: two\r\n\r\n", false, true},
		{"connection close", "POST /a HTTP/1.1\r\nConnection: close\r\n\r\n", false, true},
		{"two equal lengths", "POST /a HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n", false, false},
		{"two hosts", "POST /a HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", false, false},
		{"folded field", "POST /a HTTP/1.1\r\nX-Pdagent-K: v\r\n  more\r\n\r\n", false, false},
		{"escaped path", "POST /a%2Fb HTTP/1.1\r\n\r\n", false, false},
		{"absolute form", "POST http://h/a HTTP/1.1\r\n\r\n", false, false},
		{"query", "GET /a?b=c HTTP/1.1\r\n\r\n", false, false},
		{"connection list", "POST /a HTTP/1.1\r\nConnection: close, te\r\n\r\n", false, false},
		{"HEAD", "HEAD /a HTTP/1.1\r\n\r\n", false, false},
		{"HTTP/1.0", "POST /a HTTP/1.0\r\n\r\n", false, false},
		{"chunked", "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", false, false},
		{"expect", "POST /a HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 1\r\n\r\n", false, false},
		{"tab in value", "POST /a HTTP/1.1\r\nX-Pdagent-K: a\tb\r\n\r\n", false, false},
		{"bare LF", "POST /a HTTP/1.1\nX-Pdagent-K: v\r\n\r\n", false, false},
		{"signed length", "POST /a HTTP/1.1\r\nContent-Length: +1\r\n\r\n", false, false},
		{"answer", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n", true, true},
		{"answer without reason", "HTTP/1.1 599\r\nContent-Length: 2\r\n\r\n", true, true},
		{"answer without length", "HTTP/1.1 200 OK\r\n\r\n", true, false},
		{"no content", "HTTP/1.1 204 No Content\r\nContent-Length: 2\r\n\r\n", true, false},
		{"not modified", "HTTP/1.1 304 Not Modified\r\nContent-Length: 2\r\n\r\n", true, false},
		{"interim", "HTTP/1.1 100 Continue\r\nContent-Length: 2\r\n\r\n", true, false},
		{"trailer", "HTTP/1.1 200 OK\r\nTrailer: X\r\nContent-Length: 2\r\n\r\n", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := tc.head + "ok"
			br := bufio.NewReader(strings.NewReader(wire))
			br.Peek(1) //nolint:errcheck // fills the buffer
			var h head
			if got := readHead(br, tc.response, &h); got != tc.taken {
				t.Fatalf("taken %v, want %v", got, tc.taken)
			} else if !got {
				if br.Buffered() != len(wire) {
					t.Fatalf("a head not taken consumed %d bytes", len(wire)-br.Buffered())
				}
				return
			}
			// Taken: net/http reads the same.
			ref := bufio.NewReader(strings.NewReader(wire))
			var fields http.Header
			var length int64
			var closing bool
			if tc.response {
				hresp, err := http.ReadResponse(ref, nil)
				if err != nil {
					t.Fatal(err)
				}
				if hresp.StatusCode != h.status {
					t.Fatalf("status %d, net/http %d", h.status, hresp.StatusCode)
				}
				fields, length, closing = hresp.Header, hresp.ContentLength, hresp.Close
			} else {
				hreq, err := http.ReadRequest(ref)
				if err != nil {
					t.Fatal(err)
				}
				if hreq.URL.Path != h.path {
					t.Fatalf("path %q, net/http %q", h.path, hreq.URL.Path)
				}
				fields, length, closing = hreq.Header, hreq.ContentLength, hreq.Close
			}
			if want := pdagentHeaders(fields); !maps.Equal(h.fields, want) {
				t.Fatalf("fields %v, net/http %v", h.fields, want)
			}
			if max(h.length, 0) != length || h.closing != closing {
				t.Fatalf("length %d closing %v, net/http %d %v", h.length, h.closing, length, closing)
			}
		})
	}
}
