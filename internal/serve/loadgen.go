package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simio"
	"repro/internal/stats"
)

// MixEntry is one request kind in the generated traffic, drawn with
// probability proportional to Weight.
type MixEntry struct {
	Path   string
	Weight int
}

// DefaultMix exercises every endpoint: mostly interactive traffic with a
// steady stream of batch jobs underneath, mirroring the paper's
// interactive-plus-background workloads.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{Path: "/ping", Weight: 4},
		{Path: "/proxy?url=http://site-%d.example/", Weight: 4},
		{Path: "/jserver?job=matmul", Weight: 2},
		{Path: "/jserver?job=fib", Weight: 2},
		{Path: "/jserver?job=sort", Weight: 1},
		{Path: "/jserver?job=sw", Weight: 1},
		{Path: "/email?op=send&user=%d", Weight: 2},
		{Path: "/email?op=sort&user=%d", Weight: 1},
		{Path: "/email?op=print&user=%d&id=3", Weight: 1},
	}
}

// LoadConfig parameterizes a load generation run.
type LoadConfig struct {
	// Addr is the server address to drive.
	Addr string
	// Duration is the arrival window.
	Duration time.Duration
	// MeanArrival is the open-loop Poisson mean interarrival time.
	MeanArrival time.Duration
	// Conns is the client connection pool size.
	Conns int
	// Mix is the request mix (default DefaultMix). Entries may contain
	// one %d verb, filled with a per-request pseudo-random value.
	Mix []MixEntry
	// Seed makes arrivals reproducible.
	Seed int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.MeanArrival <= 0 {
		c.MeanArrival = 2 * time.Millisecond
	}
	if c.Conns <= 0 {
		c.Conns = 16
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	if c.Seed == 0 {
		c.Seed = 20200406
	}
	return c
}

// ClassSample aggregates responses for one priority class, as reported
// by the server's X-Class/X-Priority headers. Latencies holds only 2xx
// responses: a shed or timed-out request is a fast refusal, and folding
// it into the sample would make an overloaded server's p99 look BETTER
// the harder it sheds. Refusals are counted instead, split by the
// server's X-Overload reason.
type ClassSample struct {
	Class     string
	Prio      int
	Latencies []time.Duration

	// Shed counts 503s refused by admission control (X-Overload "shed",
	// "conns", or "draining"); Timeouts counts deadline-missed 503s
	// (X-Overload "deadline"); Other counts remaining non-2xx responses
	// (4xx, handler 500s).
	Shed     int64
	Timeouts int64
	Other    int64
}

// LoadResult is one load generation run's outcome. Done counts every
// parsed response; Shed and Timeouts total the per-class refusal
// counters (goodput = Done - Shed - Timeouts - per-class Other).
type LoadResult struct {
	Sent     int64
	Done     int64
	Errors   int64
	Shed     int64
	Timeouts int64
	Elapsed  time.Duration
	// PerClass maps class name → latency sample. Latency is measured
	// from the request's scheduled arrival instant to the last response
	// byte, so queueing delay counts — the open-loop discipline that
	// makes tail latencies honest under overload.
	PerClass map[string]*ClassSample
}

// Summary returns the latency summary for one class.
func (r *LoadResult) Summary(class string) stats.Summary {
	cs := r.PerClass[class]
	if cs == nil {
		return stats.Summary{}
	}
	return stats.Summarize(cs.Latencies)
}

// Report renders the per-class latency table, highest priority first.
func (r *LoadResult) Report(w io.Writer) {
	fmt.Fprintf(w, "sent=%d done=%d shed=%d timeouts=%d errors=%d elapsed=%v\n",
		r.Sent, r.Done, r.Shed, r.Timeouts, r.Errors, r.Elapsed.Round(time.Millisecond))
	classes := make([]*ClassSample, 0, len(r.PerClass))
	for _, cs := range r.PerClass {
		classes = append(classes, cs)
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].Prio != classes[j].Prio {
			return classes[i].Prio > classes[j].Prio
		}
		return classes[i].Class < classes[j].Class
	})
	fmt.Fprintf(w, "%-16s %4s %7s %6s %6s %6s %10s %10s %10s %10s\n",
		"class", "prio", "ok", "shed", "timeo", "other", "p50", "p95", "p99", "max")
	for _, cs := range classes {
		s := stats.Summarize(cs.Latencies)
		fmt.Fprintf(w, "%-16s %4d %7d %6d %6d %6d %10v %10v %10v %10v\n",
			cs.Class, cs.Prio, s.Count, cs.Shed, cs.Timeouts, cs.Other,
			s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
}

// arrival is one scheduled request: the timestamp is fixed by the
// Poisson generator, not by when a connection frees up.
type arrival struct {
	path string
	at   time.Time
}

// RunLoad drives cfg.Addr with open-loop Poisson traffic: a generator
// goroutine schedules arrivals regardless of how the server keeps up,
// and a fixed pool of keep-alive connections issues them. It returns the
// per-class latency aggregation.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()

	// Weighted mix lookup table.
	var picks []string
	for _, m := range cfg.Mix {
		for i := 0; i < m.Weight; i++ {
			picks = append(picks, m.Path)
		}
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("serve: empty request mix")
	}

	res := &LoadResult{PerClass: map[string]*ClassSample{}}
	// Result recording is sharded per connection goroutine: each worker
	// appends to its own buffers with no synchronization and the shards
	// are merged once after the pool drains — at high -rate a single
	// mutex around the latency slices would make the loadgen itself the
	// contention bottleneck it is trying to measure.
	shards := make([]map[string]*ClassSample, cfg.Conns)
	for i := range shards {
		shards[i] = map[string]*ClassSample{}
	}

	var sent, done, errs atomic.Int64
	arrivals := make(chan arrival, 1<<14)

	// The generator: open-loop Poisson arrivals over the mix. The
	// schedule is absolute — each arrival's instant is fixed by the
	// cumulative interarrival draws, and every wake emits ALL arrivals
	// now due. Sleeping per arrival instead (time.After in a loop) caps
	// the offered rate at the platform timer resolution, which silently
	// turns a 3x-capacity overload run into a sub-capacity one.
	stop := make(chan struct{})
	time.AfterFunc(cfg.Duration, func() { close(stop) })
	go func() {
		defer close(arrivals)
		gen := simio.NewPoisson(cfg.MeanArrival, cfg.Seed)
		state := uint64(cfg.Seed)*2654435761 + 7
		emit := func(at time.Time) {
			state = state*6364136223846793005 + 1442695040888963407
			path := picks[(state>>33)%uint64(len(picks))]
			if strings.Contains(path, "%d") {
				path = fmt.Sprintf(path, (state>>41)%64)
			}
			sent.Add(1)
			select {
			case arrivals <- arrival{path: path, at: at}:
			default:
				errs.Add(1) // arrival backlog overflow: count, don't block the clock
			}
		}
		begin := time.Now()
		next := gen.Next()
		for {
			now := time.Since(begin)
			if now < next {
				t := time.NewTimer(next - now)
				select {
				case <-stop:
					t.Stop()
					return
				case <-t.C:
				}
				now = time.Since(begin)
			}
			select {
			case <-stop:
				return
			default:
			}
			for next <= now {
				// Latency is measured from the SCHEDULED instant, not
				// the (possibly batched) emission instant.
				emit(begin.Add(next))
				next += gen.Next()
			}
		}
	}()

	// The connection pool.
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(shard map[string]*ClassSample) {
			defer wg.Done()
			record := func(resp *response, d time.Duration) {
				cs := shard[resp.class]
				if cs == nil {
					cs = &ClassSample{Class: resp.class, Prio: resp.prio}
					shard[resp.class] = cs
				}
				switch {
				case resp.status/100 == 2:
					cs.Latencies = append(cs.Latencies, d)
				case resp.overload == "deadline":
					cs.Timeouts++
				case resp.overload != "":
					cs.Shed++ // admission refusals: shed, conns, draining
				default:
					cs.Other++
				}
			}
			var (
				conn net.Conn
				br   *bufio.Reader
			)
			dial := func() bool {
				var err error
				conn, err = net.DialTimeout("tcp", cfg.Addr, 5*time.Second)
				if err != nil {
					return false
				}
				br = bufio.NewReader(conn)
				return true
			}
			if !dial() {
				// The generator enqueues with select/default and never
				// blocks, so a failed connection just leaves the pool;
				// stealing arrivals here would deflate the healthy
				// connections' offered load.
				errs.Add(1)
				return
			}
			// Close whatever connection is current at exit, not the
			// first one dialed (dial() rebinds conn after errors).
			defer func() { conn.Close() }()
			for a := range arrivals {
				req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: loadgen\r\n\r\n", a.path)
				conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
				if _, err := conn.Write([]byte(req)); err != nil {
					errs.Add(1) // one failed request = one error, even if the redial below also fails
					conn.Close()
					if !dial() {
						return
					}
					continue
				}
				// A hung server must surface as a counted error and a
				// non-zero exit, not an indefinite hang (the CI smoke
				// job depends on this).
				conn.SetReadDeadline(time.Now().Add(30 * time.Second))
				resp, err := readResponse(br)
				if err != nil {
					errs.Add(1)
					conn.Close()
					if !dial() {
						return
					}
					continue
				}
				done.Add(1)
				record(resp, time.Since(a.at))
			}
		}(shards[i])
	}
	wg.Wait()

	// Merge the per-worker shards (single-threaded now).
	for _, shard := range shards {
		for class, cs := range shard {
			agg := res.PerClass[class]
			if agg == nil {
				agg = &ClassSample{Class: cs.Class, Prio: cs.Prio}
				res.PerClass[class] = agg
			}
			agg.Latencies = append(agg.Latencies, cs.Latencies...)
			agg.Shed += cs.Shed
			agg.Timeouts += cs.Timeouts
			agg.Other += cs.Other
			res.Shed += cs.Shed
			res.Timeouts += cs.Timeouts
		}
	}

	res.Sent = sent.Load()
	res.Done = done.Load()
	res.Errors = errs.Load()
	res.Elapsed = time.Since(start)
	if res.Done == 0 {
		return res, fmt.Errorf("serve: no responses from %s (%d errors)", cfg.Addr, res.Errors)
	}
	return res, nil
}
