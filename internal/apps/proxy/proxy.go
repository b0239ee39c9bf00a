// Package proxy implements the paper's first case study (Section 5.1): a
// caching proxy server. Clients request URLs; the server answers from a
// concurrent cache or fetches the site on a miss, masking the client.
//
// Priority levels, highest to lowest, follow the paper:
//
//	PrioEvent  — the accept loop and per-client event loops
//	PrioFetch  — website fetches on cache misses
//	PrioStats  — the statistics logger
//	PrioMain   — startup/shutdown
//
// The priority specification favors response time for client requests.
// Network I/O is simulated by internal/simio.
package proxy

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/icilk"
	"repro/internal/simio"
	"repro/internal/stats"
)

// Priority levels (indices into a 4-level runtime).
const (
	PrioMain  icilk.Priority = 0
	PrioStats icilk.Priority = 1
	PrioFetch icilk.Priority = 2
	PrioEvent icilk.Priority = 3
)

// Levels is the number of priority levels the proxy needs.
const Levels = 4

// Config parameterizes a proxy run.
type Config struct {
	// Clients is the number of concurrent client connections.
	Clients int
	// Duration is how long clients keep issuing requests.
	Duration time.Duration
	// MeanThink is each client's mean think time between requests.
	MeanThink time.Duration
	// Sites is the size of the URL space (smaller = higher hit rate).
	Sites int
	// FetchLatency is the simulated remote-site latency.
	FetchLatency simio.Latency
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 30
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.MeanThink <= 0 {
		c.MeanThink = 5 * time.Millisecond
	}
	if c.Sites <= 0 {
		c.Sites = 200
	}
	if c.FetchLatency.Base == 0 {
		c.FetchLatency = simio.Latency{Base: 3 * time.Millisecond, Jitter: 5 * time.Millisecond}
	}
	return c
}

// Result summarizes a run.
type Result struct {
	// Responses are per-request response times: from the client sending
	// the request to the event loop handling it (the paper's definition —
	// requests are always handled by the highest-priority thread).
	Responses []time.Duration
	Hits      int64
	Misses    int64
	Requests  int64
	// Components holds the compute-time samples of the "event", "fetch"
	// and "stats" components (Figure 14): one per task, from just
	// before its spawn to the end of its body. An event task's span is
	// its request's response time, so "event" holds Responses' samples.
	Components map[string]*stats.Recorder
}

// ResponseSummary summarizes the response-time sample.
func (r Result) ResponseSummary() stats.Summary { return stats.Summarize(r.Responses) }

// site returns deterministic fake content for a URL.
func site(url string) string {
	h := fnv.New64a()
	h.Write([]byte(url))
	return fmt.Sprintf("<html>content of %s: %x</html>", url, h.Sum64())
}

// Service is the proxy's reusable core — the cache and the origin — used
// by both the simulated harness (Run) and internal/serve's /proxy
// endpoint. The front-end arrival process differs (Poisson clients vs
// real TCP); the cache-or-fetch logic is the same.
//
// The cache is the paper's showcase shared state: event loops (the
// highest level) read it on every request while fetchers (one level
// down) write it on every miss. That read-mostly split is exactly what
// icilk.RWMutex's per-mode ceilings encode: readers are admitted up to
// PrioEvent and share the lock, writers only up to PrioFetch — so
// lookups from concurrent event loops never serialize against each
// other, and an event loop blocking behind a mid-fill fetcher boosts
// the fetcher to the event level rather than letting the fill stall the
// interactive class behind batch work. The cache is an
// icilk.ShardedMap, key-hashed across per-shard locks with those
// ceilings, so a fetcher filling one URL never blocks lookups of any
// other, and concurrent lookups of different URLs take different locks
// entirely.
type Service struct {
	cache  *icilk.ShardedMap[string]
	origin *simio.Device
	// Hits and Misses are ceilinged worker-striped counters
	// (allocation-free atomic bumps on the caller's stripe); harness and
	// /stats code reads them with a nil Ctx (external access).
	Hits   *icilk.StripedCounter
	Misses *icilk.StripedCounter
}

// NewService creates a proxy core on rt with the given origin latency.
// The cache's read ceiling is PrioEvent (event loops are its highest
// readers); its write ceiling is PrioFetch (fetchers fill it).
func NewService(rt *icilk.Runtime, lat simio.Latency, seed int64) *Service {
	return &Service{
		cache:  icilk.NewShardedMap[string](rt, PrioEvent, PrioFetch, "proxy.cache"),
		origin: simio.NewDevice("origin", lat, seed),
		Hits:   icilk.NewStripedCounter(rt, PrioEvent),
		Misses: icilk.NewStripedCounter(rt, PrioEvent),
	}
}

// Lookup consults the URL's cache shard from the calling task (a read
// lock: lookups run in parallel), counting the hit or miss.
func (s *Service) Lookup(c *icilk.Ctx, url string) (string, bool) {
	body, ok := s.cache.Get(c, url)
	if ok {
		s.Hits.Add(c, 1)
	} else {
		s.Misses.Add(c, 1)
	}
	return body, ok
}

// Fetch retrieves url from the origin (an IO future hides the latency),
// parses it, and fills the cache. It runs on the calling task, which
// should be at PrioFetch per the priority specification.
func (s *Service) Fetch(rt *icilk.Runtime, c *icilk.Ctx, p icilk.Priority, url string) string {
	body := simio.Read(rt, s.origin, p, func() string {
		return site(url)
	}).Touch(c)
	spin(150 * time.Microsecond) // parse/validate
	c.Checkpoint()
	// Write lock: the fill is the cache's only mutation.
	s.cache.Update(c, url, func(m map[string]string) { m[url] = body })
	return body
}

// Run executes the proxy workload on the given runtime, which must have
// at least Levels priority levels.
func Run(rt *icilk.Runtime, cfg Config) Result {
	cfg = cfg.withDefaults()
	svc := NewService(rt, cfg.FetchLatency, cfg.Seed)

	var (
		responses, fetches, logs stats.Recorder
		requests                 atomic.Int64
	)
	components := map[string]*stats.Recorder{"event": &responses, "fetch": &fetches, "stats": &logs}

	// Main component (lowest priority): startup.
	startup := icilk.Go(rt, nil, PrioMain, "main", func(c *icilk.Ctx) int {
		return 0
	})

	// Stats logger (low priority): periodically aggregates counters.
	statsStop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-statsStop:
				return
			case <-tick.C:
				spawned := time.Now()
				icilk.Go(rt, nil, PrioStats, "stats", func(c *icilk.Ctx) int {
					// Aggregate counters with a small amount of work.
					h, m := svc.Hits.Load(c), svc.Misses.Load(c)
					spin(20 * time.Microsecond)
					c.Checkpoint()
					logs.Record(time.Since(spawned))
					return int(h + m)
				})
			}
		}
	}()

	// Clients: external goroutines issuing requests with think times.
	stop := make(chan struct{})
	time.AfterFunc(cfg.Duration, func() { close(stop) })
	var clientWG sync.WaitGroup
	for cl := 0; cl < cfg.Clients; cl++ {
		clientWG.Add(1)
		go func(cl int) {
			defer clientWG.Done()
			gen := simio.NewPoisson(cfg.MeanThink, cfg.Seed+int64(cl)*7919)
			urls := newURLPicker(cfg.Sites, cfg.Seed+int64(cl))
			gen.Run(stop, func(i int) {
				url := urls.pick()
				arrival := time.Now()
				requests.Add(1)
				// The per-client event loop handles the request at the
				// highest priority.
				icilk.Go(rt, nil, PrioEvent, "event", func(c *icilk.Ctx) int {
					if _, ok := svc.Lookup(c, url); ok {
						spin(15 * time.Microsecond) // compose response
						responses.Record(time.Since(arrival))
						return 1
					}
					// Delegate the fetch to the lower-priority component;
					// the event loop is done once the fetch is dispatched.
					spawned := time.Now()
					icilk.Go(rt, c, PrioFetch, "fetch", func(c *icilk.Ctx) int {
						n := len(svc.Fetch(rt, c, PrioFetch, url))
						fetches.Record(time.Since(spawned))
						return n
					})
					responses.Record(time.Since(arrival))
					return 0
				})
			})
		}(cl)
	}
	clientWG.Wait()
	statsStop <- struct{}{}
	statsWG.Wait()
	// Shutdown component at main priority.
	icilk.Go(rt, nil, PrioMain, "main", func(c *icilk.Ctx) int { return 0 })
	if _, err := icilk.Await(startup, time.Second); err != nil {
		// Startup not completing means the runtime is wedged; surface it
		// through an empty result rather than hanging the harness.
		return Result{Components: components}
	}
	_ = rt.WaitIdle(10 * time.Second)

	return Result{
		Responses:  responses.Samples(),
		Hits:       svc.Hits.Load(nil),
		Misses:     svc.Misses.Load(nil),
		Requests:   requests.Load(),
		Components: components,
	}
}

// spin burns roughly d of CPU.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1
	for time.Now().Before(end) {
		for i := 0; i < 64; i++ {
			x = x*31 + i
		}
	}
	_ = x
}

// urlPicker draws Zipf-ish URLs (hot sites repeat, so caching matters).
type urlPicker struct {
	sites int
	state uint64
}

func newURLPicker(sites int, seed int64) *urlPicker {
	return &urlPicker{sites: sites, state: uint64(seed)*2654435761 + 1}
}

func (u *urlPicker) pick() string {
	u.state = u.state*6364136223846793005 + 1442695040888963407
	r := u.state >> 33
	// Square the uniform draw to skew toward low indices.
	idx := int((r % uint64(u.sites)) * (r % uint64(u.sites)) / uint64(u.sites))
	return fmt.Sprintf("http://site-%d.example/", idx)
}
