package transport

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMuxRouting(t *testing.T) {
	m := NewMux()
	m.HandleFunc("/exact", func(_ context.Context, _ *Request) *Response {
		return OKText("exact")
	})
	m.HandleFunc("/api/", func(_ context.Context, r *Request) *Response {
		return OKText("prefix:" + r.Path)
	})
	m.HandleFunc("/api/deeper/", func(_ context.Context, _ *Request) *Response {
		return OKText("deeper")
	})

	cases := []struct {
		path, want string
		status     int
	}{
		{"/exact", "exact", StatusOK},
		{"/api/x", "prefix:/api/x", StatusOK},
		{"/api/deeper/y", "deeper", StatusOK},
		{"/nope", "", StatusNotFound},
	}
	for _, tc := range cases {
		resp := m.Serve(context.Background(), &Request{Path: tc.path})
		if resp.Status != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.path, resp.Status, tc.status)
		}
		if tc.status == StatusOK && resp.Text() != tc.want {
			t.Errorf("%s: body = %q, want %q", tc.path, resp.Text(), tc.want)
		}
	}
	if got := len(m.Patterns()); got != 3 {
		t.Errorf("Patterns() len = %d", got)
	}
}

func TestHeadersCaseInsensitive(t *testing.T) {
	r := (&Request{}).SetHeader("Code-ID", "abc")
	if r.GetHeader("code-id") != "abc" || r.GetHeader("CODE-ID") != "abc" {
		t.Fatal("request header lookup not case-insensitive")
	}
	resp := (&Response{}).SetHeader("Agent-Id", "7")
	if resp.GetHeader("agent-id") != "7" {
		t.Fatal("response header lookup not case-insensitive")
	}
}

func TestResponseHelpers(t *testing.T) {
	if err := OK(nil).Err(); err != nil {
		t.Errorf("OK().Err() = %v", err)
	}
	err := Errorf(StatusNotFound, "missing %s", "thing").Err()
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusNotFound || !strings.Contains(se.Body, "missing thing") {
		t.Errorf("Err() = %#v", err)
	}
}

func TestSizeAccounting(t *testing.T) {
	r := &Request{Path: "/p", Body: []byte("12345")}
	r.SetHeader("k", "vv")
	if r.Size() != 2+5+1+2+4 {
		t.Errorf("request Size = %d", r.Size())
	}
	resp := OK([]byte("123"))
	if resp.Size() != 8+3 {
		t.Errorf("response Size = %d", resp.Size())
	}
}

func TestHTTPAdapterRoundTrip(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, req *Request) *Response {
		if req.Path != "/pdagent/echo" {
			return Errorf(StatusNotFound, "bad path %s", req.Path)
		}
		resp := OK(append([]byte("echo:"), req.Body...))
		resp.SetHeader("token", req.GetHeader("token")+"-back")
		return resp
	})
	srv := httptest.NewServer(NewHTTPHandler(h))
	defer srv.Close()

	client := &HTTPClient{}
	req := &Request{Path: "/pdagent/echo", Body: []byte("hello")}
	req.SetHeader("token", "t1")
	resp, err := client.RoundTrip(context.Background(), srv.URL, req)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if !resp.IsOK() || resp.Text() != "echo:hello" {
		t.Fatalf("resp = %d %q", resp.Status, resp.Text())
	}
	if got := resp.GetHeader("token"); got != "t1-back" {
		t.Fatalf("header round-trip = %q", got)
	}
}

func TestHTTPAdapterErrorStatus(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, _ *Request) *Response {
		return Errorf(StatusUnauthorized, "bad key")
	})
	srv := httptest.NewServer(NewHTTPHandler(h))
	defer srv.Close()

	resp, err := (&HTTPClient{}).RoundTrip(context.Background(), srv.URL, &Request{Path: "/x"})
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if resp.Status != StatusUnauthorized || !strings.Contains(resp.Text(), "bad key") {
		t.Fatalf("resp = %d %q", resp.Status, resp.Text())
	}
}

func TestHTTPClientUnreachable(t *testing.T) {
	_, err := (&HTTPClient{}).RoundTrip(context.Background(), "127.0.0.1:1", &Request{Path: "/x"})
	if err == nil {
		t.Fatal("expected connection error")
	}
	if !NotDelivered(err) {
		t.Fatalf("dial failure not marked not delivered: %v", err)
	}
}
