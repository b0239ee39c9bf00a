//go:build linux

package serve

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/icilk"
)

// busyWorkers occupies each of s's workers with a level-0 kernel that
// spins in 20 µs steps and calls Checkpoint between them, as the batch
// kernels do, until the returned stop is called or the test ends. after
// runs on the kernel after each Checkpoint.
func busyWorkers(t *testing.T, s *Server, after func()) (stop func()) {
	t.Helper()
	var done atomic.Bool
	var running atomic.Int32
	kernels := make([]icilk.Future[int], s.cfg.Workers)
	for i := range kernels {
		kernels[i] = icilk.Go(s.rt, nil, PrioBulk, "kernel", func(c *icilk.Ctx) int {
			running.Add(1)
			for !done.Load() {
				for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
				}
				c.Checkpoint()
				after()
			}
			return 0
		})
	}
	stop = func() {
		done.Store(true)
		for _, k := range kernels {
			if _, err := icilk.Await(k, 10*time.Second); err != nil {
				t.Error(err)
			}
		}
	}
	t.Cleanup(stop)
	for deadline := time.Now().Add(10 * time.Second); running.Load() < int32(len(kernels)); {
		if time.Now().After(deadline) {
			t.Fatal("the kernels never all started")
		}
		time.Sleep(time.Millisecond)
	}
	return stop
}

// TestBusyWorkersReadRequests: with every P held by a worker running a
// batch kernel, Go polls the network only every 10 ms (sysmon), so a
// reader parked in the netpoller would see its request 5 ms late at the
// median. The workers' boundary poll kicks the reader onto a worker's P
// instead. The delay is timed from the client's write to the reader's
// dispatch, as the kernels see it after their next Checkpoint: the
// client's own goroutine waits for Go's netpoller like any other, so
// its round trip times the test process, not the server.
func TestBusyWorkersReadRequests(t *testing.T) {
	const workers = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	s := testServer(t, Config{Workers: workers})
	cl := dialTest(t, s.Addr())
	cl.get(t, "/ping") // accepted, and its reader parked in Read

	base := time.Now()
	var target, seenAt atomic.Int64 // seenAt: time since base
	busyWorkers(t, s, func() {
		if n := target.Load(); n > 0 && s.requests.Load() >= n {
			seenAt.CompareAndSwap(0, int64(time.Since(base)))
		}
	})
	kicks0, _ := s.kicks.counts()
	const n = 41
	delays := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		seenAt.Store(0)
		target.Store(s.requests.Load() + 1)
		sent := time.Since(base)
		if r := cl.get(t, "/ping"); r.status != 200 {
			t.Fatalf("/ping %d = %d", i, r.status)
		}
		for deadline := time.Now().Add(10 * time.Second); seenAt.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the kernels never saw the request dispatched")
			}
			time.Sleep(100 * time.Microsecond)
		}
		delays = append(delays, time.Duration(seenAt.Load())-sent)
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	kicks1, polls := s.kicks.counts()
	t.Logf("write to dispatch with busy workers: p50 %v, max %v; %d kicks in %d polls",
		delays[n/2], delays[n-1], kicks1-kicks0, polls)
	if kicks1 == kicks0 {
		t.Error("no reader was kicked")
	}
	if med := delays[n/2]; med >= 2500*time.Microsecond {
		t.Errorf("median write-to-dispatch delay %v with busy workers, want < 2.5ms", med)
	}
}

// trickle writes b one byte per write, pausing between bytes, so the
// reader blocks (and is kicked) inside request heads.
func trickle(t *testing.T, c net.Conn, b string) {
	t.Helper()
	for i := 0; i < len(b); i++ {
		if _, err := c.Write([]byte{b[i]}); err != nil {
			t.Fatalf("write byte %d: %v", i, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestKicksNeverTearRequests pipelines mixed-class requests one byte per
// write while busy workers kick the reader, so kicks land mid-head. A
// kick must stay invisible: every response decodes under
// http.ReadResponse, in request order, with a body of its declared
// Content-Length. And a kick must not hide a real timeout: on a second
// server, a connection idle past IdleTimeout and a head that trickles
// past ReadHeaderTimeout are still dropped, and not before time.
func TestKicksNeverTearRequests(t *testing.T) {
	const workers = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	s := testServer(t, Config{Workers: workers})
	stop := busyWorkers(t, s, func() {})

	paths := []string{"/jserver?job=sw", "/ping", "/jserver?job=matmul"}
	classes := []string{"jserver-sw", "ping", "jserver-matmul"}
	conn, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	kicks0, _ := s.kicks.counts()
	for _, p := range paths {
		trickle(t, conn, fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\n\r\n", p))
	}
	// The kernels hold level 0, where the sw job, and so the responses
	// behind it, would wait for them.
	stop()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	for i, p := range paths {
		resp, err := readResponse(br)
		if err != nil {
			t.Fatalf("response %d (%s): %v", i, p, err)
		}
		if resp.status != 200 || resp.class != classes[i] {
			t.Fatalf("response %d = %d class %q, want 200 %q", i, resp.status, resp.class, classes[i])
		}
	}
	kicks, _ := s.kicks.counts()
	t.Logf("%d kicks while %d requests trickled", kicks-kicks0, len(paths))
	if kicks == kicks0 {
		t.Error("no kick landed while the heads trickled")
	}

	const timeout = 300 * time.Millisecond
	s = testServer(t, Config{Workers: workers, ReadHeaderTimeout: timeout, IdleTimeout: timeout})
	busyWorkers(t, s, func() {})
	// A connection idles after its answer: its idle deadline still fires.
	cl := dialTest(t, s.Addr())
	if r := cl.get(t, "/ping"); r.status != 200 {
		t.Fatalf("/ping = %d", r.status)
	}
	start := time.Now()
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cl.br.ReadByte(); err == nil {
		t.Fatal("an idle connection received bytes")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("an idle connection was never dropped")
	}
	t.Logf("idle connection dropped after %v", time.Since(start))

	// A head trickling forever is dropped at its header deadline, kicks
	// or no kicks, and not before it.
	slow, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	for deadline := time.Now().Add(10 * time.Second); s.accepted.Load() < 2 || s.connCount.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the second connection was never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	head := "GET /ping HTTP/1.1\r\nX-Pad: " + strings.Repeat("x", 4096)
	start = time.Now()
	kicks0, _ = s.kicks.counts()
	for i := 0; s.connCount.Load() > 0; i++ {
		if time.Since(start) > 10*time.Second {
			t.Fatal("a trickling head outlived its header deadline by 10s")
		}
		if i < len(head) {
			slow.Write([]byte{head[i]})
		}
		time.Sleep(5 * time.Millisecond)
	}
	lived := time.Since(start)
	kicks, _ = s.kicks.counts()
	t.Logf("trickling head dropped after %v, %d kicks on the way", lived, kicks-kicks0)
	if lived < timeout {
		t.Errorf("a trickling head was dropped after %v, before its %v header deadline", lived, timeout)
	}
}
