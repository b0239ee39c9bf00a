package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/jserver"
)

// expectClosed asserts the server hangs up: the next read returns EOF
// (or a reset) within the deadline.
func expectClosed(t *testing.T, cl *client) {
	t.Helper()
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := cl.br.ReadByte(); err == nil {
		t.Fatal("connection still open after a fatal request error")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection neither answered nor closed (read timed out)")
	}
}

// malformedRequests are complete requests the parser must refuse with a
// 400; FuzzParseRequest seeds from them too.
var malformedRequests = []struct{ name, req string }{
	{"request line", "NONSENSE\r\n\r\n"},
	{"header without colon", "GET /ping HTTP/1.1\r\nHost: t\r\nno colon here\r\n\r\n"},
	// Bodies are framed only by Content-Length: a chunked body left in
	// the stream would be parsed as the next request. The first row has
	// no body, so only the header itself can draw its 400.
	{"transfer-encoding", "GET /ping HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"},
	{"chunked body", "GET /ping HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"},
}

func TestMalformedRequestLineGets400(t *testing.T) {
	s := testServer(t, Config{})
	for _, tc := range malformedRequests {
		t.Run(tc.name, func(t *testing.T) {
			cl := dialTest(t, s.Addr())
			if _, err := io.WriteString(cl.conn, tc.req); err != nil {
				t.Fatal(err)
			}
			cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := readResponse(cl.br)
			if err != nil {
				t.Fatalf("no response to %q: %v", tc.req, err)
			}
			if resp.status != 400 {
				t.Fatalf("%q answered %d, want 400", tc.req, resp.status)
			}
			expectClosed(t, cl)
		})
	}
}

func TestOversizedRequestLineGets400(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())
	long := "/ping?pad=" + strings.Repeat("x", maxRequestLine)
	if _, err := fmt.Fprintf(cl.conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", long); err != nil {
		t.Fatal(err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readResponse(cl.br)
	if err != nil {
		t.Fatalf("no response to an oversized request line: %v", err)
	}
	if resp.status != 400 {
		t.Fatalf("oversized request line answered %d, want 400", resp.status)
	}
	expectClosed(t, cl)
}

func TestOversizedHeadGets431(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())
	// Many modest header lines totalling past the head budget: no single
	// line trips the request-line limit, so only the byte budget can
	// stop the buffering.
	var b strings.Builder
	b.WriteString("GET /ping HTTP/1.1\r\nHost: t\r\n")
	for i := 0; b.Len() < maxHeadBytes+1024; i++ {
		fmt.Fprintf(&b, "X-Filler-%d: %s\r\n", i, strings.Repeat("y", 1000))
	}
	b.WriteString("\r\n")
	if _, err := io.WriteString(cl.conn, b.String()); err != nil && err != io.ErrShortWrite {
		// The server may cut the connection mid-upload; the response (or
		// close) below is still the observable contract.
		t.Logf("upload interrupted: %v", err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readResponse(cl.br)
	if err != nil {
		t.Fatalf("no response to an oversized head: %v", err)
	}
	if resp.status != 431 {
		t.Fatalf("oversized head answered %d, want 431", resp.status)
	}
	expectClosed(t, cl)
}

func TestOversizedBodyGets400(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())
	if _, err := fmt.Fprintf(cl.conn, "GET /ping HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1); err != nil {
		t.Fatal(err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readResponse(cl.br)
	if err != nil {
		t.Fatalf("no response to an oversized body declaration: %v", err)
	}
	if resp.status != 400 {
		t.Fatalf("oversized body answered %d, want 400", resp.status)
	}
	expectClosed(t, cl)
}

// A declared body within bounds must still be discarded correctly and
// the connection kept alive (regression guard for the budget grant).
func TestBoundedBodyIsDiscarded(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())
	body := strings.Repeat("z", 2048)
	if _, err := fmt.Fprintf(cl.conn, "GET /ping HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readResponse(cl.br)
	if err != nil || resp.status != 200 {
		t.Fatalf("GET with bounded body = (%v, %v), want 200", resp, err)
	}
	if r := cl.get(t, "/ping"); r.status != 200 {
		t.Fatalf("connection did not survive a bodied request: %d", r.status)
	}
}

func TestMaxConnsRefusesWith503(t *testing.T) {
	s := testServer(t, Config{MaxConns: 1})
	first := dialTest(t, s.Addr())
	if r := first.get(t, "/ping"); r.status != 200 {
		t.Fatalf("first connection /ping = %d", r.status)
	}
	second := dialTest(t, s.Addr())
	second.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readResponse(second.br)
	if err != nil {
		t.Fatalf("over-cap connection got no 503: %v", err)
	}
	if resp.status != 503 || resp.overload != "conns" {
		t.Fatalf("over-cap connection answered %d overload=%q, want 503/conns", resp.status, resp.overload)
	}
	expectClosed(t, second)
	// The slot frees once the first connection goes away.
	first.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		third, err := net.DialTimeout("tcp", s.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		third.SetReadDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(third, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
		resp, err := readResponse(bufio.NewReader(third))
		third.Close()
		if err == nil && resp.status == 200 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: last = (%v, %v)", resp, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSlowlorisHeaderTimeout(t *testing.T) {
	s := testServer(t, Config{ReadHeaderTimeout: 150 * time.Millisecond})
	cl := dialTest(t, s.Addr())
	// First byte arrives, then the head trickles: the header deadline
	// must cut the connection off rather than waiting forever.
	if _, err := io.WriteString(cl.conn, "GET /ping HT"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := cl.br.ReadByte()
	if err == nil {
		t.Fatal("server answered a half-written request head")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never dropped the slowloris connection")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("slowloris eviction took %v", waited)
	}
}

func TestIdleTimeout(t *testing.T) {
	s := testServer(t, Config{IdleTimeout: 150 * time.Millisecond})
	cl := dialTest(t, s.Addr())
	if r := cl.get(t, "/ping"); r.status != 200 {
		t.Fatalf("/ping = %d", r.status)
	}
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := cl.br.ReadByte()
	if err == nil {
		t.Fatal("idle connection received bytes")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("idle connection was never evicted")
	}
}

func TestDeadlineAnswers503(t *testing.T) {
	s := testServer(t, Config{
		Jobs:      jserver.Config{MatMulN: 32, FibN: 18, SortN: 20_000, SWN: 1500},
		Deadlines: map[string]time.Duration{"jserver-sw": time.Millisecond},
	})
	cl := dialTest(t, s.Addr())
	r := cl.get(t, "/jserver?job=sw")
	if r.status != 503 || r.overload != "deadline" {
		t.Fatalf("deadline-doomed sw = %d overload=%q, want 503/deadline", r.status, r.overload)
	}
	// The connection and its response ordering survive the miss.
	if r := cl.get(t, "/ping"); r.status != 200 {
		t.Fatalf("/ping after a deadline miss = %d", r.status)
	}
	stats := cl.get(t, "/stats")
	if !strings.Contains(string(stats.body), "deadline misses per class") ||
		!strings.Contains(string(stats.body), "jserver-sw") {
		t.Fatalf("/stats does not report the deadline miss:\n%s", stats.body)
	}
}

// TestDeadlineDeliversOnce races a deadlined request's two deliverers,
// its clock entry and its handler, on every request of a long pipelined
// run. The fib budget is two and a half times a fib's round trip,
// measured first on a server without deadlines, and fibs arrive in
// bursts, so the first of a burst finishes in budget (the handler wins
// with a 200), later ones run past it (the entry, or the handler's
// completion re-check, answers 503) and the last start over it. Every
// response must decode, arrive in request order — pings between the
// fibs show it — and be exactly one 200 or one 503/deadline; /stats
// must count each 503 as one miss; and once the server settles no
// request is inflight and nothing is outstanding, which covers the
// clock: an armed entry counts as outstanding until it fires or is
// cancelled.
func TestDeadlineDeliversOnce(t *testing.T) {
	jobs := jserver.Config{MatMulN: 32, FibN: 24, SortN: 20_000, SWN: 192}
	calib := testServer(t, Config{Workers: 2, Jobs: jobs})
	cl := dialTest(t, calib.Addr())
	var runs []time.Duration
	for i := 0; i < 21; i++ {
		start := time.Now()
		if r := cl.get(t, "/jserver?job=fib"); r.status != 200 {
			t.Fatalf("calibration fib = %d %q", r.status, r.body)
		}
		runs = append(runs, time.Since(start))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	budget := runs[len(runs)/2] * 5 / 2
	t.Logf("fib median round trip %v, budget %v", runs[len(runs)/2], budget)

	s := testServer(t, Config{
		Workers:   2,
		Jobs:      jobs,
		Deadlines: map[string]time.Duration{"jserver-fib": budget},
	})
	cl = dialTest(t, s.Addr())
	const bursts, perBurst = 40, 8
	missBody := fmt.Sprintf("deadline exceeded after %v\n", budget)
	ok, missed := 0, 0
	for b := 0; b < bursts; b++ {
		var req strings.Builder
		for i := 0; i < perBurst; i++ {
			req.WriteString("GET /jserver?job=fib HTTP/1.1\r\nHost: t\r\n\r\n")
			req.WriteString("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
		}
		if _, err := io.WriteString(cl.conn, req.String()); err != nil {
			t.Fatal(err)
		}
		cl.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		for i := 0; i < 2*perBurst; i++ {
			r, err := readResponse(cl.br)
			if err != nil {
				t.Fatalf("burst %d response %d: %v", b, i, err)
			}
			switch {
			case i%2 == 1:
				if r.class != "ping" || r.status != 200 || string(r.body) != "pong\n" {
					t.Fatalf("burst %d response %d = %d %q class %q, want the ping's 200", b, i, r.status, r.body, r.class)
				}
			case r.class != "jserver-fib":
				t.Fatalf("burst %d response %d has class %q, want jserver-fib", b, i, r.class)
			case r.status == 200 && r.overload == "" && strings.HasPrefix(string(r.body), "fib done in "):
				ok++
			case r.status == 503 && r.overload == "deadline" && string(r.body) == missBody:
				missed++
			default:
				t.Fatalf("burst %d fib = %d overload=%q %q, want a 200 or a deadline 503", b, r.status, r.overload, r.body)
			}
		}
	}
	t.Logf("%d fibs answered 200, %d answered 503", ok, missed)
	if ok == 0 || missed == 0 {
		t.Errorf("%d fibs answered 200 and %d answered 503: the budget raced nothing", ok, missed)
	}
	settle(t, s)
	stats := string(cl.get(t, "/stats").body)
	var counted int
	if _, after, found := strings.Cut(stats, "deadline misses per class:\n"); found {
		fmt.Sscanf(strings.TrimSpace(after), "jserver-fib %d", &counted)
	}
	if counted != missed {
		t.Errorf("/stats counts %d deadline misses, the client received %d 503s:\n%s", counted, missed, stats)
	}
	settle(t, s)
}

func TestShedWatermarkRefusesBatchKeepsInteractive(t *testing.T) {
	s := testServer(t, Config{
		Jobs:       jserver.Config{MatMulN: 32, FibN: 18, SortN: 20_000, SWN: 1500},
		ShedLimits: map[string]int{"jserver-sw": 1},
	})
	cl := dialTest(t, s.Addr())
	// One pipelined burst: the first sw is admitted; the rest arrive
	// while it is still inflight and must shed at the watermark.
	burst := strings.Repeat("GET /jserver?job=sw HTTP/1.1\r\nHost: t\r\n\r\n", 5)
	if _, err := io.WriteString(cl.conn, burst); err != nil {
		t.Fatal(err)
	}
	ok, shed := 0, 0
	for i := 0; i < 5; i++ {
		cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := readResponse(cl.br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.class != "jserver-sw" {
			t.Fatalf("response %d attributed to class %q", i, resp.class)
		}
		switch {
		case resp.status == 200:
			ok++
		case resp.status == 503 && resp.overload == "shed":
			shed++
		default:
			t.Fatalf("response %d = %d overload=%q", i, resp.status, resp.overload)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst of 5 sw: ok=%d shed=%d, want both nonzero", ok, shed)
	}
	// Interactive traffic is untouched by the batch watermark.
	if r := cl.get(t, "/ping"); r.status != 200 {
		t.Fatalf("/ping during sw shedding = %d", r.status)
	}
	stats := cl.get(t, "/stats")
	if !strings.Contains(string(stats.body), "shed per class") {
		t.Fatalf("/stats does not report sheds:\n%s", stats.body)
	}
}

// Graceful drain: a request admitted before Shutdown still gets its
// response; the drain phase holds the socket open until the bytes land.
func TestGracefulDrainFinishesInflight(t *testing.T) {
	s := testServer(t, Config{
		Jobs: jserver.Config{MatMulN: 32, FibN: 18, SortN: 20_000, SWN: 1500},
	})
	cl := dialTest(t, s.Addr())
	if _, err := io.WriteString(cl.conn, "GET /jserver?job=sw HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Wait until the request is admitted, then shut down underneath it.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never went inflight")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- s.Shutdown() }()
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := readResponse(cl.br)
	if err != nil {
		t.Fatalf("inflight request was cut off by Shutdown: %v", err)
	}
	if resp.status != 200 {
		t.Fatalf("drained response = %d, want 200", resp.status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
