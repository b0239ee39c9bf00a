package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/icilk"
)

// Byte budgets for one request. A request line longer than
// maxRequestLine or a declared body over maxBodyBytes is malformed
// (400); a head that keeps pulling bytes past maxHeadBytes without
// completing is abuse (431) — the headLimiter cuts it off at the socket
// so a hostile client cannot make the reader buffer unbounded bytes.
const (
	maxRequestLine = 4 << 10
	maxHeadBytes   = 16 << 10
	maxBodyBytes   = 64 << 10
)

// reqError is a client-visible parse failure: the reader answers with
// status and drops the connection (the byte stream past a malformed
// request is unframed, so the connection cannot be reused).
type reqError struct {
	status int
	msg    string
}

func (e *reqError) Error() string { return fmt.Sprintf("serve: %d %s", e.status, e.msg) }

var errHeadTooLarge = &reqError{status: 431, msg: "request head too large"}

// headLimiter sits between the socket and the reader's bufio.Reader,
// bounding how many bytes one request may pull. The reader resets the
// budget before each request; parseRequest grants extra budget for a
// declared (bounded) body. Bytes buffered by bufio across a reset are
// counted against the request that pulled them, not the one that parses
// them — an approximation that is off by at most one bufio buffer, never
// unbounded. err keeps the last error it returned, so the parser can tell
// the connection's errors from textproto's verdicts on the bytes.
type headLimiter struct {
	r      io.Reader
	budget int
	err    error
}

func (h *headLimiter) Read(p []byte) (int, error) {
	if h.budget <= 0 {
		h.err = errHeadTooLarge
		return 0, errHeadTooLarge
	}
	if len(p) > h.budget {
		p = p[:h.budget]
	}
	n, err := h.r.Read(p)
	h.budget -= n
	if err != nil {
		h.err = err
	}
	return n, err
}

// request is one parsed HTTP request, which the connection's reader
// dispatches as a handler task.
type request struct {
	method string
	path   string
	query  url.Values
}

// parseRequest reads one HTTP/1.1 request (request line plus headers)
// from the connection. Bodies are read and discarded — every endpoint is
// a GET — and are framed only by Content-Length: a Transfer-Encoding
// header is refused, since its body would be parsed as the next
// request. It runs on the connection's reader goroutine, where blocking
// is free: the Go netpoller parks the goroutine, not an icilk worker. It
// reads through the reader's sockReader, so a kick from a busy worker
// never reaches it as an error.
// Malformed input fails with a *reqError carrying the status the reader
// should answer with; IO errors (EOF, deadline) pass through raw.
func parseRequest(tp *textproto.Reader, br *bufio.Reader, lim *headLimiter) (*request, error) {
	line, err := tp.ReadLine()
	if err != nil {
		return nil, err
	}
	if line == "" { // tolerate a stray blank line between requests
		if line, err = tp.ReadLine(); err != nil {
			return nil, err
		}
	}
	if len(line) > maxRequestLine {
		return nil, &reqError{status: 400, msg: fmt.Sprintf("request line of %d bytes exceeds %d", len(line), maxRequestLine)}
	}
	method, rest, ok := strings.Cut(line, " ")
	uri, _, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 {
		return nil, &reqError{status: 400, msg: fmt.Sprintf("malformed request line %q", line)}
	}
	h, err := tp.ReadMIMEHeader()
	if err != nil {
		if !errors.Is(err, lim.err) {
			// Not the connection's error passed through: textproto refused
			// the bytes (a line without a colon, a bad field name, ...).
			return nil, &reqError{status: 400, msg: err.Error()}
		}
		return nil, err
	}
	if _, ok := h["Transfer-Encoding"]; ok {
		return nil, &reqError{status: 400, msg: "Transfer-Encoding is not supported"}
	}
	if cl := h.Get("Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, &reqError{status: 400, msg: fmt.Sprintf("bad Content-Length %q", cl)}
		}
		if n > maxBodyBytes {
			return nil, &reqError{status: 400, msg: fmt.Sprintf("body of %d bytes exceeds %d", n, maxBodyBytes)}
		}
		lim.budget += n // a declared, bounded body may exceed the head budget
		if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
			return nil, err
		}
	}
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		return nil, &reqError{status: 400, msg: fmt.Sprintf("bad request URI %q", uri)}
	}
	return &request{method: method, path: u.Path, query: u.Query()}, nil
}

// overloadHeaders marks a 503 with its reason and a retry hint. The
// X-Overload value ("shed", "deadline", "conns", "draining") lets the
// load generator count refusals per cause instead of folding them into
// latency samples.
func overloadHeaders(reason string) string {
	return "Retry-After: 1\r\nX-Overload: " + reason + "\r\n"
}

// httpResponse serializes a keep-alive HTTP/1.1 response. The admission
// class and priority ride in X-Class/X-Priority headers so the load
// generator can aggregate latencies per priority class without knowing
// the server's admission table. extra is preformatted additional header
// lines ("" for none), each "Name: value\r\n".
func httpResponse(status int, class string, prio icilk.Priority, extra, body string) []byte {
	var b strings.Builder
	b.Grow(len(body) + len(extra) + 128)
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, http.StatusText(status))
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	fmt.Fprintf(&b, "Content-Type: text/plain\r\n")
	fmt.Fprintf(&b, "X-Class: %s\r\n", class)
	fmt.Fprintf(&b, "X-Priority: %d\r\n", int(prio))
	b.WriteString(extra)
	b.WriteString("\r\n")
	b.WriteString(body)
	return []byte(b.String())
}

// response is the client-side view of one reply, as read by the load
// generator.
type response struct {
	status   int
	class    string
	prio     int
	overload string // X-Overload reason on a refused request, "" otherwise
	body     []byte
}

// readResponse reads one response from a client connection with
// net/http's parser, so every test and the load generator hold what the
// server writes to the standard library's reading of HTTP/1.1. The
// response must be framed by Content-Length: on a keep-alive connection
// an unframed body would run into the next response.
func readResponse(br *bufio.Reader) (*response, error) {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.ContentLength < 0 {
		return nil, fmt.Errorf("serve: %q response without Content-Length", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	prio, _ := strconv.Atoi(resp.Header.Get("X-Priority"))
	return &response{
		status:   resp.StatusCode,
		class:    resp.Header.Get("X-Class"),
		prio:     prio,
		overload: resp.Header.Get("X-Overload"),
		body:     body,
	}, nil
}
