package serve

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/icilk"
)

// seedBigResponse makes /proxy?url=big answer with 32 MiB — far more
// than a loopback socket buffers. The response cache replays whole
// bodies for /proxy; seeding it is the one way to make a stock endpoint
// answer that large.
func seedBigResponse(t *testing.T, s *Server) []byte {
	t.Helper()
	big := bytes.Repeat([]byte("0123456789abcdef"), 2<<20)
	for i := 0; i < len(big); i += 4099 {
		big[i] = byte('A' + i%23) // position-dependent, so a shifted or repeated chunk shows
	}
	seeded := icilk.Go(s.rt, nil, classPrio("proxy"), "seed", func(c *icilk.Ctx) int {
		s.storeResponse(c, "proxy:big", string(big))
		return 0
	})
	if _, err := icilk.Await(seeded, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return big
}

// awaitFallback waits for the server's first fallback write to start.
func awaitFallback(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.writesFallback.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a large response to a client that is not reading never reached the fallback writer (direct=%d)",
				s.writesDirect.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLargeResponseTakesFallbackIntact drives the slow half of respond:
// a response far larger than a loopback socket's buffers, to a client
// that starts reading late, cannot go out in one non-blocking write, so
// the handler hands the unwritten rest to a writer goroutine and parks.
// The body must arrive intact and exactly once, and the pipelined /ping
// behind it must be answered after it — the order token is completed
// only when the fallback write is.
func TestLargeResponseTakesFallbackIntact(t *testing.T) {
	s := testServer(t, Config{})
	big := seedBigResponse(t, s)

	cl := dialTest(t, s.Addr())
	pipelined := "GET /proxy?url=big HTTP/1.1\r\nHost: t\r\n\r\nGET /ping HTTP/1.1\r\nHost: t\r\n\r\n"
	if _, err := io.WriteString(cl.conn, pipelined); err != nil {
		t.Fatal(err)
	}
	// Read late: the server's first write attempt meets a receiver that
	// takes nothing beyond what the kernel buffers.
	awaitFallback(t, s)
	cl.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	first, err := readResponse(cl.tp, cl.br)
	if err != nil {
		t.Fatalf("reading the large response: %v", err)
	}
	if first.status != 200 || !bytes.Equal(first.body, big) {
		t.Fatalf("large response: status %d, %d body bytes (want %d), intact=%v",
			first.status, len(first.body), len(big), bytes.Equal(first.body, big))
	}
	second, err := readResponse(cl.tp, cl.br)
	if err != nil {
		t.Fatalf("reading the pipelined successor: %v", err)
	}
	if second.status != 200 || string(second.body) != "pong\n" {
		t.Fatalf("pipelined successor = %d %q, want the /ping answer", second.status, second.body)
	}
	// Exactly once: the connection owes nothing more.
	cl.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if b, err := cl.br.ReadByte(); err == nil {
		t.Fatalf("stray byte %q after both responses", b)
	}
	if got := s.writesFallback.Load(); got != 1 {
		t.Errorf("fallback writes = %d, want exactly the large response", got)
	}
	if got := s.writeErrs.Load(); got != 0 {
		t.Errorf("write errors = %d", got)
	}
	// The fallback cleared its write deadline: a later small response on
	// the same connection goes out directly. (settle: a response reaches
	// the client before its handler has counted it.)
	settle(t, s)
	direct0 := s.writesDirect.Load()
	if r := cl.get(t, "/ping"); r.status != 200 {
		t.Fatalf("/ping after the fallback = %d", r.status)
	}
	settle(t, s)
	if s.writesDirect.Load() != direct0+1 {
		t.Errorf("the response after a fallback write did not take the direct path")
	}
}

// TestMalformedBehindStalledWrite pins the reader against a fallback
// write in flight: a malformed request pipelined behind a response the
// client is not reading drops the connection at once — the reader does
// not queue on the descriptor's write lock behind the stalled write —
// and its 400 is not spliced into the half-sent response.
func TestMalformedBehindStalledWrite(t *testing.T) {
	s := testServer(t, Config{})
	big := seedBigResponse(t, s)

	cl := dialTest(t, s.Addr())
	if _, err := io.WriteString(cl.conn, "GET /proxy?url=big HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	awaitFallback(t, s)
	if _, err := io.WriteString(cl.conn, "NOT-HTTP\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second) // far inside writeStall
	for s.connCount.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the reader did not drop the connection while a fallback write was stalled")
		}
		time.Sleep(time.Millisecond)
	}
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, _ := io.ReadAll(cl.br) // ends in EOF or a reset; either way the bytes so far count
	if bytes.Contains(got, []byte("HTTP/1.1 400")) {
		t.Fatal("the 400 landed inside the half-written response")
	}
	if i := bytes.Index(got, []byte("\r\n\r\n")); i < 0 || !bytes.HasPrefix(big, got[i+4:]) {
		t.Fatalf("%d bytes arrived and are not a prefix of the large response", len(got))
	}
}

// settle waits until the only things outstanding in s's runtime are the
// open connection's event loop and the request promise it is parked on:
// a response reaches the client before its handler has completed its
// order token, retired and been counted, so counters read straight
// after the last answer can be one request behind.
func settle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.rt.Outstanding() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server never settled: %d outstanding", s.rt.Outstanding())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPingFastPathCounts pins what the direct write buys on the request
// path: once the connection's event loop has been promoted, a /ping
// costs one park (the loop waiting for the next request), no promotion
// and no goroutine — the handler runs inline on a worker, writes the
// socket itself and returns. The bounds leave a tenth for the one
// legitimate exception: a client quick enough to get its next request
// dispatched before the previous handler has completed its order token
// makes the successor park on it (seen under -race, where the handler's
// epilogue is slow).
func TestPingFastPathCounts(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	cl := dialTest(t, s.Addr())
	for i := 0; i < 10; i++ { // promote the loop, fill the pools
		cl.get(t, "/ping")
	}
	settle(t, s)
	const n = 200
	st0, gor0 := s.rt.Stats(), runtime.NumGoroutine()
	direct0 := s.writesDirect.Load()
	for i := 0; i < n; i++ {
		if r := cl.get(t, "/ping"); r.status != 200 {
			t.Fatalf("/ping %d = %d", i, r.status)
		}
	}
	settle(t, s)
	st1, gor1 := s.rt.Stats(), runtime.NumGoroutine()
	if d := st1.Parks - st0.Parks; d > n+n/10 {
		t.Errorf("%d pings took %d parks, want about one each", n, d)
	}
	if d := st1.Promotions - st0.Promotions; d > n/10 {
		t.Errorf("%d pings promoted %d tasks to fibers, want about none", n, d)
	}
	if d := st1.InlineRuns - st0.InlineRuns; d < n-n/10 {
		t.Errorf("%d pings ran only %d handlers inline", n, d)
	}
	if gor1 != gor0 {
		t.Errorf("goroutines %d -> %d across %d pings, want flat", gor0, gor1, n)
	}
	if d := s.writesDirect.Load() - direct0; d != n {
		t.Errorf("%d pings took the direct write %d times (fallback %d)", n, d, s.writesFallback.Load())
	}
}

// TestIdleServerPingFloor is ROADMAP item 1's millisecond floor, gone: a
// request that finds every worker (and the whole process) asleep is
// woken by the reader's completion itself, not by a coalescing timer a
// sleeping Go process fires a millisecond late.
func TestIdleServerPingFloor(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs: client and server share the box")
	}
	s := testServer(t, Config{Workers: 2})
	conn, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := []byte("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
	buf := make([]byte, 4096)
	const n = 101
	ttfb := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		time.Sleep(5 * time.Millisecond) // long enough for every worker to park
		start := time.Now()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil { // first byte; the response is one segment
			t.Fatal(err)
		}
		ttfb = append(ttfb, time.Since(start))
	}
	sort.Slice(ttfb, func(i, j int) bool { return ttfb[i] < ttfb[j] })
	med := ttfb[n/2]
	t.Logf("idle /ping time to first byte: p50 %v, p95 %v", med, ttfb[n*95/100])
	if med >= 500*time.Microsecond {
		t.Fatalf("idle-server /ping median time to first byte = %v, want < 500µs", med)
	}
}
