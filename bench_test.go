// Package repro_test holds the top-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (Table 1, Figure 13,
// Figure 14) and microbenchmarks of the substrate. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig13/Fig14 benchmarks execute a complete (shortened) client/server
// experiment per iteration, so they are wall-clock heavy by design.
package repro_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/icilk"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/prio"
	"repro/internal/schedsim"
	"repro/internal/stats"
	"repro/internal/types"
)

// benchCfg keeps experiment benchmarks short per iteration.
func benchCfg() experiments.EvalConfig {
	return experiments.EvalConfig{
		Workers:     4,
		Duration:    80 * time.Millisecond,
		Connections: []int{40},
		Seed:        1,
	}
}

// --- Table 1 ---

func BenchmarkTable1TypecheckWithPriorities(b *testing.B) {
	benchTypecheck(b, true)
}

func BenchmarkTable1TypecheckNoPriorities(b *testing.B) {
	benchTypecheck(b, false)
}

func benchTypecheck(b *testing.B, withPrio bool) {
	variant := "prio"
	if !withPrio {
		variant = "noprio"
	}
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"proxy", "email", "jserver"} {
			if _, err := experiments.CheckProgram(app, variant, withPrio); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 13 ---

func BenchmarkFig13Proxy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(experiments.EvalConfig{
			Workers: cfg.Workers, Duration: cfg.Duration,
			Connections: cfg.Connections, Seed: int64(i + 1),
		})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(rows[0].RatioAvg, "proxy-ratio")
	}
}

func BenchmarkFig13Email(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(experiments.EvalConfig{
			Workers: cfg.Workers, Duration: cfg.Duration,
			Connections: cfg.Connections, Seed: int64(i + 1),
		})
		if len(rows) < 2 {
			b.Fatal("no rows")
		}
		b.ReportMetric(rows[1].RatioAvg, "email-ratio")
	}
}

// --- Figure 14 ---

func BenchmarkFig14ProxyEmail(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14ProxyEmail(cfg)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig14JServer(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 120 * time.Millisecond
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14JServer(cfg)
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// --- Theorem 2.3 bound verification on the DAG simulator ---

func buildBoundGraph() *dag.Graph {
	order := prio.NewTotalOrder("low", "high")
	g := dag.New(order)
	if err := g.AddThread("hi", prio.Const("high")); err != nil {
		panic(err)
	}
	if err := g.AddThread("lo", prio.Const("low")); err != nil {
		panic(err)
	}
	var prev dag.VertexID
	for i := 0; i < 200; i++ {
		v := g.MustAddVertex("hi", "")
		if i > 0 {
			_ = prev
		}
		prev = v
		g.MustAddVertex("lo", "")
	}
	return g
}

func BenchmarkTheorem23Verify(b *testing.B) {
	g := buildBoundGraph()
	for i := 0; i < b.N; i++ {
		sched, err := schedsim.Run(g, schedsim.Options{P: 4, Prompt: true})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := schedsim.VerifyBound(g, sched, "hi", 4)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Holds {
			b.Fatal("bound violated")
		}
	}
}

func BenchmarkPromptSchedule(b *testing.B) {
	g := buildBoundGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := schedsim.Run(g, schedsim.Options{P: 8, Prompt: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate microbenchmarks ---

const benchProgram = `
priority p
main : nat @ p = {
  dcl acc : nat := 0 in
  let loop = fix f : nat -> nat cmd[p] is
    fn n : nat => ifz n { cmd[p]{ r <- cmd[p]{ !acc }; ret r }
                        ; m . cmd[p]{ w <- cmd[p]{ acc := m }; r <- f m; ret r } } in
  x <- loop 40;
  ret x
}
`

func BenchmarkMachineRun(b *testing.B) {
	prog, err := parser.Parse(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
		if err := mc.Run(machine.RunAll{}, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParserParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(benchProgram); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTypecheck(b *testing.B) {
	prog, err := parser.Parse(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	c := types.New(prog.Order)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Cmd(types.NewEnv(prog.Order), types.Signature{}, prog.Main, prog.MainPrio); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeSpawnTouch(b *testing.B) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	fut := icilk.Go(rt, nil, 1, "bench", func(c *icilk.Ctx) int {
		for i := 0; i < b.N; i++ {
			child := icilk.Go(rt, c, 1, "child", func(*icilk.Ctx) int { return i })
			child.Touch(c)
		}
		return 0
	})
	if _, err := icilk.Await(fut, 10*time.Minute); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntimeIOFuture(b *testing.B) {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()
	b.ResetTimer()
	fut := icilk.Go(rt, nil, 0, "bench", func(c *icilk.Ctx) int {
		for i := 0; i < b.N; i++ {
			io := icilk.IO(rt, 0, 0, func() int { return i })
			io.Touch(c)
		}
		return 0
	})
	if _, err := icilk.Await(fut, 10*time.Minute); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHighPrioStartDelay is the layer number for prompt scheduling:
// both workers of a two-worker runtime drain a level-0 backlog of 100 µs
// tasks while level-1 tasks arrive from outside 2 ms apart, and the
// reported metrics are the delay from the Go call to the task's first
// instruction. The arrivals are spaced far beyond a level-1 task's run
// time, so each one finds both workers busy below it.
func BenchmarkHighPrioStartDelay(b *testing.B) {
	const (
		backlog = 32
		taskLen = 100 * time.Microsecond
		spacing = 2 * time.Millisecond
	)
	// Two Ps beyond the workers': with only the workers' two, the pacer's
	// and the ticker's timers cannot fire until a spinning worker's
	// goroutine is preempted, 10 ms.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	// The backlog is topped up from a ticker, not by the tasks
	// themselves, so level 0 is always ready but never self-sustaining.
	var outstanding atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for outstanding.Load() < backlog {
				outstanding.Add(1)
				icilk.Go(rt, nil, 0, "backlog", func(*icilk.Ctx) int {
					for end := time.Now().Add(taskLen); time.Now().Before(end); {
					}
					outstanding.Add(-1)
					return 0
				})
			}
		}
	}()

	delays := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range delays {
		time.Sleep(spacing)
		fired := time.Now()
		started, err := icilk.Await(icilk.Go(rt, nil, 1, "probe", func(*icilk.Ctx) time.Time { return time.Now() }), time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		delays[i] = started.Sub(fired)
	}
	b.StopTimer()
	close(done)
	wg.Wait()
	if err := rt.WaitIdle(time.Minute); err != nil {
		b.Fatal(err)
	}
	sum := stats.Summarize(delays)
	b.ReportMetric(float64(sum.P50.Nanoseconds())/1e3, "p50-µs")
	b.ReportMetric(float64(sum.P99.Nanoseconds())/1e3, "p99-µs")
}
