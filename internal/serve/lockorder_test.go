package serve

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/icilk"
)

// TestLockOrderReportNamesServeShards drives two of the server's own
// named session-shard locks in AB/BA order, through nested Updates on
// two keys in different shards (sequentially — the run itself cannot
// deadlock), and asserts the recorder's report names them: a violation
// inside the serve layer must be attributable to the exact shard locks
// involved, not an anonymous pair.
func TestLockOrderReportNamesServeShards(t *testing.T) {
	// Deliberately NOT testServer: its teardown asserts zero violations,
	// and this test records one on purpose.
	s, err := Start(Config{Debug: true})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	rt := s.Runtime()
	p := derivedCeiling("serve.sessions")
	run := func(fn func(c *icilk.Ctx)) {
		t.Helper()
		f := icilk.Go(rt, nil, p, "crossed", func(c *icilk.Ctx) int { fn(c); return 0 })
		if _, err := icilk.Await(f, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Seed keys, then take one key from each of the first two non-empty
	// shards (single acquisitions only: no order is recorded yet).
	var keys []string
	run(func(c *icilk.Ctx) {
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
	})
	if len(keys) < 2 {
		t.Fatalf("32 keys landed in %d shard(s), want ≥ 2", len(keys))
	}
	a, b := keys[0], keys[1]
	for _, order := range [][2]string{{a, b}, {b, a}} {
		run(func(c *icilk.Ctx) {
			s.sess.Update(c, order[0], func(map[string]*session) {
				s.sess.Update(c, order[1], func(map[string]*session) {})
			})
		})
	}

	v := rt.LockOrderViolations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if !strings.Contains(v[0], "potential deadlock") {
		t.Errorf("violation %q does not mention potential deadlock", v[0])
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`"serve\.sessions/\d+"`).FindAllString(v[0], -1) {
		names[m] = true
	}
	if len(names) != 2 {
		t.Errorf("violation %q names %d distinct serve.sessions shard locks, want 2", v[0], len(names))
	}
}
