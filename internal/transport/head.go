package transport

import (
	"bufio"
	"bytes"
	"io"
	"strings"
)

// head is what readHead takes from a message head.
type head struct {
	path    string // a request's target
	status  int    // a response's status code
	length  int64  // Content-Length; -1 when absent
	closing bool   // Connection: close
	// fields holds the X-Pdagent-* values keyed by the rest of the name
	// in lower case, the first value of each, as pdagentHeaders does;
	// nil when there are none.
	fields map[string]string
}

// readHead reads the head at the front of br when it is already wholly
// buffered and of the narrow shape both ends of this package write:
//
//   - the request line is "POST|GET /[A-Za-z0-9/_.-]* HTTP/1.1", or the
//     status line is "HTTP/1.1 ddd[ reason]" with a status that is
//     neither 1xx, 204 nor 304;
//   - every field is one line ending in CRLF, its name a token, its
//     value free of control characters;
//   - there is at most one Content-Length, all digits (a response must
//     have one), and at most one Host;
//   - Connection is "close" or "keep-alive";
//   - there is no Transfer-Encoding, Expect or Trailer.
//
// It then discards the head, fills h and reports true. Any other head
// it leaves unread and reports false: the caller reads the same bytes
// with http.ReadRequest or http.ReadResponse, whose framing covers the
// rest (chunked bodies, HTTP/1.0, 100-continue, folded lines, the
// refusals). On every head it takes, the path, fields, length and
// Connection agree with what net/http reads.
func readHead(br *bufio.Reader, response bool, h *head) bool {
	buf, _ := br.Peek(br.Buffered())
	end := bytes.Index(buf, []byte("\r\n\r\n"))
	if end < 0 {
		return false
	}
	lines := buf[:end+2] // every line, each ending in CRLF
	*h = head{length: -1}
	line, rest, ok := cutLine(lines)
	if !ok || response && !h.statusLine(line) || !response && !h.requestLine(line) {
		return false
	}
	hosts := 0
	for len(rest) > 0 {
		if line, rest, ok = cutLine(rest); !ok {
			return false
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return false
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " ")
		for _, c := range value {
			if c < ' ' || c == 0x7f {
				return false
			}
		}
		switch {
		case len(name) >= len(headerPrefix) && isField(name[:len(headerPrefix)], "x-pdagent-"):
			var kb [32]byte
			k := append(kb[:0], name[len(headerPrefix):]...)
			for i, c := range k {
				if 'A' <= c && c <= 'Z' {
					k[i] = c + 'a' - 'A'
				}
			}
			if _, dup := h.fields[string(k)]; !dup {
				if h.fields == nil {
					h.fields = make(map[string]string)
				}
				h.fields[string(k)] = string(value)
			}
		case isField(name, "content-length"):
			if h.length >= 0 || len(value) == 0 || len(value) > 18 {
				return false
			}
			h.length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return false
				}
				h.length = 10*h.length + int64(c-'0')
			}
		case isField(name, "host"):
			if hosts++; hosts > 1 {
				return false
			}
		case isField(name, "connection"):
			switch {
			case isField(value, "close"):
				h.closing = true
			case !isField(value, "keep-alive"):
				return false
			}
		case isField(name, "transfer-encoding"), isField(name, "expect"), isField(name, "trailer"):
			return false
		}
	}
	if response && h.length < 0 {
		return false
	}
	br.Discard(end + 4) //nolint:errcheck // the bytes are buffered
	return true
}

// cutLine cuts b at its first CR, which must start a CRLF.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\r')
	if i < 0 || i+1 == len(b) || b[i+1] != '\n' {
		return nil, nil, false
	}
	return b[:i], b[i+2:], true
}

// requestLine takes "POST|GET /[A-Za-z0-9/_.-]* HTTP/1.1".
func (h *head) requestLine(line []byte) bool {
	switch {
	case bytes.HasPrefix(line, []byte("POST /")):
		line = line[len("POST "):]
	case bytes.HasPrefix(line, []byte("GET /")):
		line = line[len("GET "):]
	default:
		return false
	}
	path, ok := bytes.CutSuffix(line, []byte(" HTTP/1.1"))
	if !ok {
		return false
	}
	for _, c := range path {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '/' || c == '_' || c == '.' || c == '-') {
			return false
		}
	}
	h.path = string(path)
	return true
}

// statusLine takes "HTTP/1.1 ddd[ reason]" with a status of 200 or more
// that allows a body (not 204 or 304).
func (h *head) statusLine(line []byte) bool {
	rest, ok := bytes.CutPrefix(line, []byte("HTTP/1.1 "))
	if !ok || len(rest) < 3 || len(rest) > 3 && rest[3] != ' ' {
		return false
	}
	for i, c := range rest {
		if i < 3 && (c < '0' || c > '9') || c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	h.status = int(rest[0]-'0')*100 + int(rest[1]-'0')*10 + int(rest[2]-'0')
	return h.status >= 200 && h.status != 204 && h.status != 304
}

// isToken reports whether b is an HTTP token (RFC 9110 §5.6.2).
func isToken(b []byte) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(b) > 0
}

// isField reports whether b equals the lower-case ASCII f, ignoring case.
func isField(b []byte, f string) bool {
	if len(b) != len(f) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != f[i] {
			return false
		}
	}
	return true
}

// lengthReader reads the n bytes of a body whose length its head
// declared; an end before them is io.ErrUnexpectedEOF, as for net/http's
// body.
type lengthReader struct {
	r io.Reader
	n int64
}

func (l *lengthReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	if err == io.EOF && l.n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
