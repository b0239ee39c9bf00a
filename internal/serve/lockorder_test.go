package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/icilk"
)

// TestLockOrderReportNamesServeShards drives two of the server's own
// named session-shard locks in AB/BA order (sequentially — the run
// itself cannot deadlock) and asserts the recorder's report names them:
// a violation inside the serve layer must be attributable to the exact
// shard locks involved, not an anonymous pair.
func TestLockOrderReportNamesServeShards(t *testing.T) {
	// Deliberately NOT testServer: its teardown asserts zero violations,
	// and this test records one on purpose.
	s, err := Start(Config{RecordLockOrder: true})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	rt := s.Runtime()
	a := s.sess.shards[0].mu
	b := s.sess.shards[1].mu
	p := derivedCeiling("serve.sessions")
	for _, order := range [][2]*icilk.RWMutex{{a, b}, {b, a}} {
		order := order
		f := icilk.Go(rt, nil, p, "crossed", func(c *icilk.Ctx) int {
			order[0].Lock(c)
			order[1].Lock(c)
			order[1].Unlock(c)
			order[0].Unlock(c)
			return 0
		})
		if _, err := icilk.Await(f, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	v := rt.LockOrderViolations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	for _, want := range []string{"potential deadlock", `"serve.sessions/0"`, `"serve.sessions/1"`} {
		if !strings.Contains(v[0], want) {
			t.Errorf("violation %q does not mention %s", v[0], want)
		}
	}
}
