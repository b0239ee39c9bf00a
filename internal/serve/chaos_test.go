package serve

import (
	"bufio"
	"fmt"
	"net"
	"net/textproto"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/jserver"
	"repro/internal/faultinject"
)

// TestChaosSoak drives the server with redialing clients while a seeded
// fault injector corrupts connections (resets, short writes, stalls)
// and perturbs promise completions (delays, forced failures). The
// invariants under fire:
//
//   - Every request gets AT MOST one well-formed response on its
//     connection; a cut connection is the only other outcome. The
//     sequential write-read discipline per client plus the trailing
//     stray-byte probe detects duplicated or interleaved responses.
//   - After Shutdown: no leaked tasks (Outstanding()==0), no leaked
//     connections (registry empty), and a nil drain error.
//   - The injector actually fired (nonzero fault counters) — a soak
//     that never injected anything proves nothing.
//
// The icilk runtime's own teardown asserts (worker join, pool quiesce)
// and the -race build do the rest.
func TestChaosSoak(t *testing.T) {
	fl := faultinject.Default(42)
	s := testServer(t, Config{
		Workers: 4,
		Jobs:    jserver.Config{MatMulN: 32, FibN: 18, SortN: 20_000, SWN: 600},
		Faults:  fl,
		Deadlines: map[string]time.Duration{
			"jserver-sw": 250 * time.Millisecond,
		},
		ShedLimits: map[string]int{
			"jserver-sw":   8,
			"jserver-sort": 8,
		},
		MaxConns:          64,
		ReadHeaderTimeout: 2 * time.Second,
		IdleTimeout:       5 * time.Second,
		DrainTimeout:      10 * time.Second,
	})
	addr := s.Addr()

	soak := 1500 * time.Millisecond
	if testing.Short() {
		soak = 400 * time.Millisecond
	}
	stop := time.Now().Add(soak)

	paths := []string{
		"/ping",
		"/jserver?job=matmul",
		"/jserver?job=fib",
		"/jserver?job=sort",
		"/jserver?job=sw",
		"/email?op=send&user=7",
		"/stats",
	}

	var (
		responses  atomic.Int64 // well-formed responses parsed
		connDeaths atomic.Int64 // injected (or timeout) connection losses
		violations atomic.Int64 // protocol violations: wrong status, stray bytes
	)
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Deterministic per-client request stream; the chaos comes
			// from the server-side injector, not the client.
			state := uint64(id)*2862933555777941757 + 3037000493
			for time.Now().Before(stop) {
				conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					// MaxConns churn or accept backlog; try again.
					time.Sleep(5 * time.Millisecond)
					continue
				}
				br := bufio.NewReader(conn)
				tp := textproto.NewReader(br)
				// One connection: sequential request/response until the
				// injector (or a timeout) kills it.
				alive := true
				for alive && time.Now().Before(stop) {
					state = state*6364136223846793005 + 1442695040888963407
					path := paths[(state>>33)%uint64(len(paths))]
					conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
					if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: chaos\r\n\r\n", path); err != nil {
						connDeaths.Add(1)
						break
					}
					conn.SetReadDeadline(time.Now().Add(10 * time.Second))
					resp, err := readResponse(tp, br)
					if err != nil {
						// Injected reset/short write or eviction: the
						// connection is dead, never half-answered.
						connDeaths.Add(1)
						break
					}
					responses.Add(1)
					switch resp.status {
					case 200, 202, 503:
						// ok, accepted, or shed/deadline/conns refusal
					default:
						violations.Add(1)
						t.Errorf("client %d: %s answered %d", id, path, resp.status)
						alive = false
					}
				}
				// Stray-byte probe: after the last in-sync response the
				// server owes this connection nothing. Any readable byte
				// would mean a duplicated or unsolicited response.
				if alive {
					conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
					if b, err := br.ReadByte(); err == nil {
						violations.Add(1)
						t.Errorf("client %d: stray unsolicited byte %q", id, b)
					}
				}
				conn.Close()
			}
		}(c)
	}
	wg.Wait()

	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown after chaos: %v", err)
	}
	if n := s.rt.Outstanding(); n != 0 {
		t.Errorf("leaked tasks after drain: %d outstanding", n)
	}
	s.connMu.Lock()
	leaked := len(s.conns)
	s.connMu.Unlock()
	if leaked != 0 {
		t.Errorf("leaked connections after drain: %d", leaked)
	}
	if n := s.connCount.Load(); n != 0 {
		t.Errorf("connection count nonzero after drain: %d", n)
	}
	if violations.Load() != 0 {
		t.Fatalf("%d protocol violations during soak", violations.Load())
	}
	st := fl.Stats()
	if st.Total() == 0 {
		t.Fatalf("fault injector never fired over %d responses — soak proves nothing", responses.Load())
	}
	// A wrapped connection is not a raw socket, so every response takes
	// the fallback writer — the one place the completion hooks live. If
	// the direct write ever swallowed chaos traffic, they would go quiet.
	// (Forced failures are drawn at 1% per write: only a soak with a
	// thousand of them is owed one.)
	if st.CompleteDelays == 0 || (st.CompleteFails == 0 && responses.Load() >= 1000) {
		t.Fatalf("completion hooks never fired (%v): responses are bypassing the fallback writer", st)
	}
	if d := s.writesDirect.Load(); d != 0 {
		t.Errorf("%d responses on fault-wrapped connections took the direct write", d)
	}
	if responses.Load() == 0 {
		t.Fatal("no responses survived the soak — injection rates drowned the signal")
	}
	t.Logf("chaos soak: %d responses, %d conn deaths, faults: %v",
		responses.Load(), connDeaths.Load(), st)
}
