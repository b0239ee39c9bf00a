package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/textproto"
	"strings"
	"testing"
	"testing/iotest"
)

// parseOutcome runs parseRequest over src as the reader does (socket →
// headLimiter → bufio → textproto) and renders the result as one
// comparable string, failing t on an outcome the parser must never
// produce: a malformed request is a *reqError answered 400 or 431, and
// the only IO errors a finite input can cause are the two end-of-input
// ones.
func parseOutcome(t *testing.T, src io.Reader) string {
	lim := &headLimiter{r: src, budget: maxHeadBytes}
	br := bufio.NewReader(lim)
	req, err := parseRequest(textproto.NewReader(br), br, lim)
	var re *reqError
	switch {
	case err == nil:
		if req == nil {
			t.Fatal("parseRequest returned neither a request nor an error")
		}
		return fmt.Sprintf("request %q %q %v", req.method, req.path, req.query)
	case errors.As(err, &re):
		if re.status != 400 && re.status != 431 {
			t.Fatalf("reqError with status %d, want 400 or 431: %v", re.status, err)
		}
		return fmt.Sprintf("refused %d %s", re.status, re.msg)
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return "io " + err.Error()
	}
	t.Fatalf("parseRequest failed with %T %v: neither a *reqError nor end of input", err, err)
	return ""
}

// FuzzParseRequest holds the parser to its contract on arbitrary bytes:
// it never panics, it answers a request, an end-of-input error or a
// client-visible *reqError, and the outcome does not depend on how the
// bytes are split across reads.
func FuzzParseRequest(f *testing.F) {
	f.Add("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
	f.Add("\r\nGET /jserver?job=sw&sid=a HTTP/1.1\r\nHost: t\r\n\r\nGET /ping HTTP/1.1\r\n\r\n")
	f.Add("GET /ping HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
	f.Add(fmt.Sprintf("GET /ping HTTP/1.1\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1))
	f.Add("GET /ping HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
	f.Add("GET /ping?pad=" + strings.Repeat("x", maxRequestLine) + " HTTP/1.1\r\n\r\n")
	f.Add("GET /ping HTTP/1.1\r\n" + strings.Repeat("X-Filler: "+strings.Repeat("y", 1000)+"\r\n", 17) + "\r\n")
	f.Add("GET /ping HTTP/1.1\r\nHost: t\r\n") // head cut short
	for _, tc := range malformedRequests {
		f.Add(tc.req)
	}
	f.Fuzz(func(t *testing.T, src string) {
		whole := parseOutcome(t, strings.NewReader(src))
		if split := parseOutcome(t, iotest.OneByteReader(strings.NewReader(src))); split != whole {
			t.Fatalf("outcome depends on read sizes:\n whole:    %s\n one byte: %s", whole, split)
		}
	})
}
