package proxy

import (
	"testing"
	"time"

	"repro/internal/icilk"
)

func shortCfg(seed int64) Config {
	return Config{
		Clients:   8,
		Duration:  150 * time.Millisecond,
		MeanThink: 4 * time.Millisecond,
		Sites:     40,
		Seed:      seed,
	}
}

func TestProxyServesRequests(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	res := Run(rt, shortCfg(1))
	if res.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if int64(len(res.Responses)) != res.Requests {
		t.Errorf("responses %d != requests %d", len(res.Responses), res.Requests)
	}
	if res.Hits+res.Misses != res.Requests {
		t.Errorf("hits %d + misses %d != requests %d", res.Hits, res.Misses, res.Requests)
	}
	if res.Misses == 0 {
		t.Error("expected at least one cache miss (cold cache)")
	}
	if res.Hits == 0 {
		t.Error("expected at least one cache hit (hot sites repeat)")
	}
	sum := res.ResponseSummary()
	if sum.Count == 0 || sum.Mean <= 0 {
		t.Errorf("bad summary: %v", sum)
	}
}

func TestProxyBaselineMode(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: false})
	defer rt.Shutdown()
	res := Run(rt, shortCfg(2))
	if res.Requests == 0 {
		t.Fatal("no requests issued under baseline scheduling")
	}
}

func TestProxyComponentRecords(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	res := Run(rt, shortCfg(3))
	for _, name := range []string{"event", "fetch", "stats"} {
		samples := res.Components[name].Samples()
		if len(samples) == 0 {
			t.Errorf("no samples for component %q", name)
		}
		for _, d := range samples {
			if d <= 0 {
				t.Errorf("component %q sample %v, want > 0", name, d)
				break
			}
		}
	}
	if len(res.Components) != 3 {
		t.Errorf("components = %d, want 3", len(res.Components))
	}
}

func TestURLPickerSkew(t *testing.T) {
	u := newURLPicker(100, 42)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[u.pick()]++
	}
	if len(counts) < 2 {
		t.Fatal("picker should produce multiple URLs")
	}
	// The skew means some URL appears much more often than uniform.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC <= 2000/100*2 {
		t.Errorf("expected skewed distribution, max count %d", maxC)
	}
}

func TestSiteDeterministic(t *testing.T) {
	if site("http://a/") != site("http://a/") {
		t.Error("site content should be deterministic")
	}
	if site("http://a/") == site("http://b/") {
		t.Error("different URLs should differ")
	}
}
