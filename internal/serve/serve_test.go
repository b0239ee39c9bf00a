package serve

import (
	"bufio"
	"fmt"
	"net"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/jserver"
	"repro/internal/icilk"
)

// testServer starts a server with small job kernels on a free port.
// Every test server runs with Debug on (the deadlock walk, the
// lock-order recorder and the stale-handle checks), and asserts at teardown that the serve layer's whole
// lock population (shard locks, app-internal locks) was nested
// consistently: a zero-violation report proves deadlock ABSENCE for
// the orders this run exercised, even where the interleaving got lucky.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Jobs == (jserver.Config{}) {
		cfg.Jobs = jserver.Config{MatMulN: 32, FibN: 18, SortN: 20_000, SWN: 192}
	}
	cfg.Debug = true
	s, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if v := s.Runtime().LockOrderViolations(); len(v) != 0 {
			t.Errorf("serve lock-order violations: %v", v)
		}
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

// client is a tiny keep-alive test client.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialTest(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, br: bufio.NewReader(conn)}
}

func (cl *client) get(t *testing.T, path string) *response {
	t.Helper()
	if _, err := fmt.Fprintf(cl.conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := readResponse(cl.br)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp
}

func TestServeEndToEnd(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())

	if r := cl.get(t, "/ping"); r.status != 200 || string(r.body) != "pong\n" {
		t.Fatalf("/ping = %d %q", r.status, r.body)
	}
	if r := cl.get(t, "/ping"); r.class != "ping" || r.prio != int(PrioInteractive) {
		t.Fatalf("/ping class headers = %q prio %d", r.class, r.prio)
	}

	// jserver endpoints carry the smallest-work-first admission levels.
	for _, tc := range []struct {
		job  string
		prio int
	}{{"matmul", 3}, {"fib", 2}, {"sort", 1}, {"sw", 0}} {
		r := cl.get(t, "/jserver?job="+tc.job)
		if r.status != 200 {
			t.Fatalf("/jserver?job=%s status = %d %q", tc.job, r.status, r.body)
		}
		if r.prio != tc.prio || r.class != "jserver-"+tc.job {
			t.Fatalf("/jserver?job=%s admitted as %q prio %d, want prio %d",
				tc.job, r.class, r.prio, tc.prio)
		}
	}

	// Proxy: first request misses and schedules the fetch; the content
	// must eventually land in the cache and hit.
	url := "/proxy?url=http://site-42.example/"
	if r := cl.get(t, url); r.status != 202 {
		t.Fatalf("first proxy request = %d %q, want 202 miss", r.status, r.body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := cl.get(t, url)
		if r.status == 200 {
			if !strings.Contains(string(r.body), "site-42.example") {
				t.Fatalf("proxy hit body = %q", r.body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy fetch never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Email operations.
	for _, path := range []string{
		"/email?op=send&user=2", "/email?op=sort&user=2", "/email?op=print&user=2&id=1",
	} {
		if r := cl.get(t, path); r.status != 200 {
			t.Fatalf("%s = %d %q", path, r.status, r.body)
		}
	}

	// Error admission.
	if r := cl.get(t, "/nope"); r.status != 404 {
		t.Fatalf("/nope = %d", r.status)
	}
	if r := cl.get(t, "/jserver?job=zzz"); r.status != 400 {
		t.Fatalf("bad job = %d", r.status)
	}
	if r := cl.get(t, "/email?op=zzz"); r.status != 400 {
		t.Fatalf("bad op = %d", r.status)
	}

	if r := cl.get(t, "/stats"); r.status != 200 || !strings.Contains(string(r.body), "admitted per class") {
		t.Fatalf("/stats = %d %q", r.status, r.body)
	}
}

func TestServeLoadgen(t *testing.T) {
	s := testServer(t, Config{})
	res, err := RunLoad(LoadConfig{
		Addr:        s.Addr(),
		Duration:    400 * time.Millisecond,
		MeanArrival: 2 * time.Millisecond,
		Conns:       8,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Done == 0 {
		t.Fatal("no completed requests")
	}
	var sb strings.Builder
	res.Report(&sb)
	t.Logf("loadgen report:\n%s", sb.String())
	if !strings.Contains(sb.String(), "class") {
		t.Fatal("report missing table header")
	}
}

// TestPipelinedSlotPrints pipelines prints that all target the same
// mailbox slot. The slot protocol makes each print task touch the
// previous print's future — the future of the task running its handler
// — so this is the shape that would deadlock if finishing that task
// waited on another request's response; the handlers must all complete
// and answer in order instead.
func TestPipelinedSlotPrints(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())
	const n = 8
	var req strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "GET /email?op=print&user=1&id=2 HTTP/1.1\r\nHost: t\r\n\r\n")
	}
	if _, err := cl.conn.Write([]byte(req.String())); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	for i := 0; i < n; i++ {
		resp, err := readResponse(cl.br)
		if err != nil {
			t.Fatalf("response %d: %v (slot protocol deadlocked against response ordering?)", i, err)
		}
		if resp.status != 200 || resp.class != "email-print" {
			t.Fatalf("response %d = %d %q class %q", i, resp.status, resp.body, resp.class)
		}
	}
}

// TestPipelinedRequests checks HTTP/1.1 response ordering: a burst of
// pipelined requests alternating slow low-priority jobs with fast
// high-priority pings must produce responses in request order, even
// though the handlers execute concurrently at different levels (a
// response that finishes early waits in the reorder buffer).
func TestPipelinedRequests(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())
	var (
		req  strings.Builder
		want []string
	)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&req, "GET /jserver?job=sw HTTP/1.1\r\nHost: t\r\n\r\n")
		fmt.Fprintf(&req, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
		want = append(want, "jserver-sw", "ping")
	}
	if _, err := cl.conn.Write([]byte(req.String())); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i, wantClass := range want {
		resp, err := readResponse(cl.br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.status != 200 {
			t.Fatalf("response %d status = %d %q", i, resp.status, resp.body)
		}
		if resp.class != wantClass {
			t.Fatalf("response %d out of order: got class %q, want %q", i, resp.class, wantClass)
		}
	}
}

// TestPipelinedPingNeverWaitsOnBatch pipelines a level-0 sw job and then
// a level-3 /ping on one connection while the sw handler is held
// mid-flight: a test task holds the session shard lock the sw request
// needs. The ping's handler task must finish anyway, its response left
// in the reorder buffer and nothing written; once the sw handler is let
// go, both responses arrive in request order.
func TestPipelinedPingNeverWaitsOnBatch(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	// One session key from each of two shards: the sw request's, whose
	// shard the test locks, and the ping's.
	var keys []string
	seeded := icilk.Go(s.rt, nil, PrioInteractive, "seed", func(c *icilk.Ctx) int {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%d", i)
			s.sess.Update(c, k, func(m map[string]*session) { m[k] = &session{} })
		}
		s.sess.Range(c, func(m map[string]*session) {
			for k := range m {
				keys = append(keys, k)
				break
			}
		})
		return 0
	})
	if _, err := icilk.Await(seeded, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(keys) < 2 {
		t.Fatalf("32 keys landed in %d shard(s), want ≥ 2", len(keys))
	}
	release := icilk.NewPromise[int](s.rt, PrioInteractive)
	held := make(chan struct{})
	holder := icilk.Go(s.rt, nil, PrioInteractive, "hold", func(c *icilk.Ctx) int {
		s.sess.Update(c, keys[0], func(map[string]*session) {
			close(held)
			release.Future().Touch(c)
		})
		return 0
	})
	<-held

	cl := dialTest(t, s.Addr())
	if _, err := fmt.Fprintf(cl.conn, "GET /jserver?job=sw&sid=%s HTTP/1.1\r\nHost: t\r\n\r\n"+
		"GET /ping?sid=%s HTTP/1.1\r\nHost: t\r\n\r\n", keys[0], keys[1]); err != nil {
		t.Fatal(err)
	}
	// Once the ping's handler task has finished, the holder, its promise
	// and the held sw handler are all that is outstanding.
	var cn *sconn
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the ping's handler never finished beside the held sw handler (%d outstanding)", s.rt.Outstanding())
		}
		if cn == nil {
			s.connMu.Lock()
			for c := range s.conns {
				cn = c
			}
			s.connMu.Unlock()
			continue
		}
		cn.mu.Lock()
		_, buffered := cn.pending[1]
		next := cn.next
		cn.mu.Unlock()
		if next != 0 {
			t.Fatal("a response was written while the sw handler was held")
		}
		if buffered && s.rt.Outstanding() == 3 {
			break
		}
	}
	release.Complete(0)
	if _, err := icilk.Await(holder, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i, want := range []string{"jserver-sw", "ping"} {
		resp, err := readResponse(cl.br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.status != 200 || resp.class != want {
			t.Fatalf("response %d = %d class %q, want 200 %q", i, resp.status, resp.class, want)
		}
	}
}

// TestSessionAndResponseCache exercises the serve layer's shared state:
// the session store keyed by sid, and the response cache that replays
// deterministic proxy bodies without re-entering the proxy service.
func TestSessionAndResponseCache(t *testing.T) {
	s := testServer(t, Config{})
	cl := dialTest(t, s.Addr())

	url := "/proxy?url=http://site-7.example/&sid=alpha"
	if r := cl.get(t, url); r.status != 202 {
		t.Fatalf("first proxy request = %d, want 202 miss", r.status)
	}
	// Wait for the fetch to land, then hit twice: the first 200 fills the
	// response cache, the second must be served from it.
	deadline := time.Now().Add(5 * time.Second)
	hits := 0
	for hits < 2 {
		if r := cl.get(t, url); r.status == 200 {
			hits++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy fetch never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.get(t, "/ping?sid=beta")

	r := cl.get(t, "/stats")
	body := string(r.body)
	if !strings.Contains(body, "response cache: 1 entries") {
		t.Errorf("stats missing response cache line:\n%s", body)
	}
	if !strings.Contains(body, "sessions:") {
		t.Errorf("stats missing sessions line:\n%s", body)
	}
	// alpha + beta sessions at minimum (plus the stats/ping requests'
	// fallback host key).
	var n, reqs int
	if _, err := fmt.Sscanf(body[strings.Index(body, "sessions:"):], "sessions: %d tracked, %d requests", &n, &reqs); err != nil {
		t.Fatalf("unparseable sessions line: %v\n%s", err, body)
	}
	if n < 2 {
		t.Errorf("sessions tracked = %d, want >= 2 (sid=alpha, sid=beta)", n)
	}
	rcLine := body[strings.Index(body, "response cache:"):]
	var entries, rcHits int
	if _, err := fmt.Sscanf(rcLine, "response cache: %d entries, %d hits", &entries, &rcHits); err != nil {
		t.Fatalf("unparseable response cache line: %v\n%s", err, body)
	}
	if rcHits < 1 {
		t.Errorf("response cache hits = %d, want >= 1", rcHits)
	}
}

// TestStoreCaps pushes more distinct keys than each cap through the
// session store and the response cache: neither grows past its cap, and
// the newest key survives the eviction it triggered.
func TestStoreCaps(t *testing.T) {
	s := testServer(t, Config{})
	var sessN, rcN int
	var newestSess, newestBody bool
	f := icilk.Go(s.Runtime(), nil, PrioInteractive, "caps", func(c *icilk.Ctx) int {
		const extra = 500
		var key string
		for i := 0; i < maxSessions+extra; i++ {
			key = fmt.Sprintf("sid-%d", i)
			s.trackSession(c, nil, &request{path: "/ping", query: url.Values{"sid": {key}}})
		}
		_, newestSess = s.sess.Get(c, key)
		s.sess.Range(c, func(m map[string]*session) { sessN += len(m) })
		for i := 0; i < maxResponseCache+extra; i++ {
			key = fmt.Sprintf("proxy:%d", i)
			s.storeResponse(c, key, "body")
		}
		_, newestBody = s.cachedResponse(c, key)
		s.rcache.Range(c, func(m map[string]string) { rcN += len(m) })
		return 0
	})
	if _, err := icilk.Await(f, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if sessN > maxSessions || !newestSess {
		t.Errorf("sessions: %d tracked (cap %d), newest present = %v", sessN, maxSessions, newestSess)
	}
	if rcN > maxResponseCache || !newestBody {
		t.Errorf("response cache: %d entries (cap %d), newest present = %v", rcN, maxResponseCache, newestBody)
	}
}
