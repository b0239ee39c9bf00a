// Command icilk-bench regenerates the paper's evaluation (Section 5):
//
//	icilk-bench -experiment table1      # Table 1: type-system overhead
//	icilk-bench -experiment fig13      # Figure 13: responsiveness ratios
//	icilk-bench -experiment fig14      # Figure 14: compute-time ratios
//	icilk-bench -experiment jserver    # Figure 14, jserver panel
//	icilk-bench -experiment ablations  # quantum / γ / threshold sweeps
//	icilk-bench -experiment sched      # scheduler suspend/resume counters
//	icilk-bench -experiment state      # Ref/Mutex priority-inheritance contention
//	icilk-bench -experiment all
//
// Passing -json additionally writes each experiment's result to
// BENCH_<experiment>.json in the current directory, recording the perf
// trajectory across PRs.
//
// Ratios are baseline (Cilk-F) time over I-Cilk time: higher means the
// prioritized scheduler wins. Expect the paper's shape, not its absolute
// microseconds — the substrate is a user-level runtime, not a 40-thread
// Xeon (see DESIGN.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experimentInfo is one catalogue entry: the name, what it reproduces,
// the flags that shape it, and the runner itself — a single table
// drives -h, the unknown-experiment error, and dispatch, so they
// cannot drift apart. Runners return the machine-readable result that
// -json writes to BENCH_<name>.json (nil = nothing to record). The
// "all" entry has no runner of its own.
type experimentInfo struct {
	name  string
	about string
	flags string
	run   func(cfg experiments.EvalConfig, iters int) any
}

// experimentList is the authoritative experiment catalogue: -h prints
// it, and an unknown -experiment value echoes it before exiting.
var experimentList = []experimentInfo{
	{"table1", "Table 1: static overhead of the priority type system", "-iters",
		func(_ experiments.EvalConfig, iters int) any { return table1(iters) }},
	{"fig13", "Figure 13: responsiveness ratios (proxy & email)", "-workers -duration -connections -seed",
		func(cfg experiments.EvalConfig, _ int) any { return fig13(cfg) }},
	{"fig14", "Figure 14: compute-time ratios per component (proxy & email)", "-workers -duration -connections -seed",
		func(cfg experiments.EvalConfig, _ int) any { return fig14(cfg) }},
	{"jserver", "Figure 14, jserver panel: compute-time ratios per job type", "-workers -duration -seed",
		func(cfg experiments.EvalConfig, _ int) any { return fig14JServer(cfg) }},
	{"ablations", "quantum / gamma / utilization-threshold sweeps (email)", "-workers -duration -seed",
		func(cfg experiments.EvalConfig, _ int) any { return ablations(cfg) }},
	{"sched", "scheduler event counters (inline runs, promotions, parks...)", "-workers -duration -seed",
		func(cfg experiments.EvalConfig, _ int) any { return sched(cfg) }},
	{"state", "Ref/Mutex contention: high-priority p99 with inheritance on vs off", "-duration -seed",
		func(cfg experiments.EvalConfig, _ int) any { return state(cfg) }},
	{"lock", "lock-free fast paths: uncontended ns/op vs raw baselines + RWMutex read scaling", "-workers -duration",
		func(cfg experiments.EvalConfig, _ int) any { return lock(cfg) }},
	{"l4i", "λ4i corpus: simulator vs compiled-onto-icilk wall time per program", "-workers -iters -l4i-dir",
		func(cfg experiments.EvalConfig, iters int) any { return l4i(cfg, iters) }},
	{"io", "per-request future tax: pooled spawn/touch allocs, forwarding touch, completion absorption", "-workers",
		func(cfg experiments.EvalConfig, _ int) any { return ioExp(cfg) }},
	{"overload", "overload robustness: per-class goodput/p99 at 0.5x and 3x capacity with shedding and deadlines", "-workers -duration -seed",
		func(cfg experiments.EvalConfig, _ int) any { return overload(cfg) }},
	{"all", "every experiment above, in order", "", nil},
}

// gitSHA best-effort identifies the commit being measured, so committed
// BENCH_*.json snapshots are attributable. A working tree with
// uncommitted changes gets a "-dirty" suffix — a snapshot generated
// while building a PR measures code HEAD does not yet contain, and a
// trajectory diff keyed on the bare SHA would misattribute it. Empty
// when git is unavailable (e.g. a release tarball).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// writeBench records one experiment's result as BENCH_<name>.json in the
// current directory — the perf-trajectory artifact CI and future PRs
// diff against. The envelope records the commit and GOMAXPROCS so
// snapshots from different machines and PRs compare honestly.
func writeBench(name string, payload any) {
	out := struct {
		Experiment string `json:"experiment"`
		GitSHA     string `json:"git_sha,omitempty"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Result     any    `json:"result"`
	}{Experiment: name, GitSHA: gitSHA(), GOMAXPROCS: runtime.GOMAXPROCS(0), Result: payload}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "icilk-bench: marshal %s: %v\n", name, err)
		os.Exit(1)
	}
	file := "BENCH_" + name + ".json"
	if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "icilk-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", file)
}

func experimentUsage(w *os.File) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experimentList {
		fmt.Fprintf(w, "  %-10s %s\n", e.name, e.about)
		if e.flags != "" {
			fmt.Fprintf(w, "  %-10s   flags: %s\n", "", e.flags)
		}
	}
}

func main() {
	var (
		exp      = flag.String("experiment", "all", "which experiment to run (see list below)")
		workers  = flag.Int("workers", 4, "virtual cores P")
		duration = flag.Duration("duration", 400*time.Millisecond, "request window per data point")
		conns    = flag.String("connections", "90,120,150,180", "comma-separated client counts")
		seed     = flag.Int64("seed", 20200406, "random seed")
		iters    = flag.Int("iters", 50, "iterations for Table 1 timing and the l4i experiment")
		jsonOut  = flag.Bool("json", false, "also write each experiment's result to BENCH_<experiment>.json")

		diffMode  = flag.Bool("diff", false, "compare BENCH_*.json in -new against the snapshots in -old and exit nonzero on regressions (no experiments run)")
		diffOld   = flag.String("old", "bench", "committed snapshot directory for -diff")
		diffNew   = flag.String("new", ".", "freshly produced snapshot directory for -diff")
		threshold = flag.Float64("threshold", 2.0, "regression threshold for -diff: flag metrics where new > old * threshold")
	)
	flag.StringVar(&l4iDir, "l4i-dir", "examples/l4i", "λ4i program directory for the l4i experiment")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: icilk-bench [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr)
		experimentUsage(os.Stderr)
	}
	flag.Parse()

	if *diffMode {
		os.Exit(runDiff(os.Stdout, *diffOld, *diffNew, *threshold))
	}

	cfg := experiments.EvalConfig{
		Workers:  *workers,
		Duration: *duration,
		Seed:     *seed,
	}
	for _, c := range strings.Split(*conns, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			fmt.Fprintf(os.Stderr, "icilk-bench: bad connection count %q\n", c)
			os.Exit(2)
		}
		cfg.Connections = append(cfg.Connections, n)
	}

	known := false
	for _, e := range experimentList {
		if e.name == *exp {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "icilk-bench: unknown experiment %q\n\n", *exp)
		experimentUsage(os.Stderr)
		os.Exit(2)
	}
	for _, e := range experimentList {
		if e.run != nil && (*exp == "all" || *exp == e.name) {
			payload := e.run(cfg, *iters)
			if *jsonOut && payload != nil {
				writeBench(e.name, payload)
			}
		}
	}
}

func table1(iters int) any {
	fmt.Println("=== Table 1: static overhead of the priority type system ===")
	fmt.Println("(λ4i model checking time and elaborated-program size; the paper")
	fmt.Println(" measured clang compile time and binary size — see DESIGN.md)")
	rows, err := experiments.Table1(iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icilk-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%-10s %14s %14s %8s %10s %10s %8s\n",
		"case study", "check w/out", "check with", "ratio", "size w/out", "size with", "ratio")
	for _, r := range rows {
		fmt.Printf("%-10s %14v %14v %7.2fx %10d %10d %7.2fx\n",
			r.App, r.TimeNoPrio, r.TimeWithPrio, r.TimeOverhead(),
			r.SizeNoPrio, r.SizeWithPrio, r.SizeOverhead())
	}
	fmt.Println()
	return rows
}

func fig13(cfg experiments.EvalConfig) any {
	fmt.Println("=== Figure 13: responsiveness ratio (Cilk-F / I-Cilk; higher = I-Cilk wins) ===")
	rows := experiments.Fig13(cfg)
	fmt.Printf("%-8s %6s %12s %12s %12s %12s %9s %9s\n",
		"app", "conns", "icilk avg", "icilk p95", "base avg", "base p95", "ratio", "ratio95")
	for _, r := range rows {
		fmt.Printf("%-8s %6d %12v %12v %12v %12v %8.2fx %8.2fx\n",
			r.App, r.Connections,
			r.ICilk.Mean.Round(time.Microsecond), r.ICilk.P95.Round(time.Microsecond),
			r.Baseline.Mean.Round(time.Microsecond), r.Baseline.P95.Round(time.Microsecond),
			r.RatioAvg, r.RatioP95)
	}
	fmt.Println()
	return rows
}

func fig14(cfg experiments.EvalConfig) any {
	fmt.Println("=== Figure 14 (proxy & email): compute-time ratio per component ===")
	rows := experiments.Fig14ProxyEmail(cfg)
	printFig14(rows)
	return rows
}

func fig14JServer(cfg experiments.EvalConfig) any {
	fmt.Println("=== Figure 14 (jserver): compute-time ratio per job type ===")
	rows := experiments.Fig14JServer(cfg)
	printFig14(rows)
	return rows
}

func printFig14(rows []experiments.Fig14Row) {
	for _, row := range rows {
		fmt.Printf("--- %s @ %s ---\n", row.App, row.Load)
		fmt.Printf("  %-10s %5s %12s %12s %9s %9s\n",
			"component", "prio", "icilk avg", "base avg", "ratio", "ratio95")
		for _, comp := range row.Components {
			if comp.ICilk.Count == 0 || comp.Baseline.Count == 0 {
				fmt.Printf("  %-10s %5d %12s %12s %9s %9s\n",
					comp.Name, comp.Prio, "-", "-", "-", "-")
				continue
			}
			fmt.Printf("  %-10s %5d %12v %12v %8.2fx %8.2fx\n",
				comp.Name, comp.Prio,
				comp.ICilk.Mean.Round(time.Microsecond),
				comp.Baseline.Mean.Round(time.Microsecond),
				comp.RatioAvg, comp.RatioP95)
		}
	}
	fmt.Println()
}

func sched(cfg experiments.EvalConfig) any {
	fmt.Println("=== Scheduler event counters (event-driven core observables) ===")
	pts := experiments.SchedCounters(cfg)
	fmt.Printf("%-8s %-9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"app", "mode", "spawns", "inline", "promote", "parks", "resumes", "helps", "steals", "wakes",
		"uptakes", "preyields")
	for _, pt := range pts {
		mode := "icilk"
		if !pt.Prioritize {
			mode = "baseline"
		}
		s := pt.Stats
		fmt.Printf("%-8s %-9s %9d %9d %9d %9d %9d %9d %9d %9d %9d %9d\n",
			pt.App, mode, s.Spawns, s.InlineRuns, s.Promotions, s.Parks,
			s.Resumes, s.Helps, s.Steals, s.Wakes, s.UpwardTakes, s.PreemptYields)
		fmt.Printf("         event-loop response: %s\n", pt.Response)
	}
	fmt.Println()
	return pts
}

func ablations(cfg experiments.EvalConfig) any {
	fmt.Println("=== Ablations: event-loop response vs scheduler parameters (email app) ===")
	var all []experiments.AblationPoint
	for _, pts := range [][]experiments.AblationPoint{
		experiments.AblationQuantum(cfg),
		experiments.AblationGamma(cfg),
		experiments.AblationThreshold(cfg),
	} {
		all = append(all, pts...)
		for _, pt := range pts {
			fmt.Printf("  %-10s = %-8s -> %s\n", pt.Param, pt.Value, pt.Response)
		}
	}
	fmt.Println()
	return all
}

// stateRatio is the headline number of the state experiment: the
// uninherited p99 over the inherited p99 (higher = inheritance wins),
// the same ratio for the three-lock chained-contention variant (where
// the rescue needs transitive propagation, not just a direct boost),
// plus the sharded-store throughput sweep.
type stateRatio struct {
	Points        []experiments.StatePoint `json:"points"`
	P99Ratio      float64                  `json:"p99_ratio_off_over_on"`
	ChainPoints   []experiments.ChainPoint `json:"chain_points"`
	ChainP99Ratio float64                  `json:"chain_p99_ratio_off_over_on"`
	Sharding      []experiments.ShardPoint `json:"sharding"`
}

func state(cfg experiments.EvalConfig) any {
	fmt.Println("=== Shared state: high-priority lock latency under low-priority contention ===")
	fmt.Println("(a low-priority chain holds a ceilinged icilk.Mutex across IO while")
	fmt.Println(" background low-priority work saturates its level; high-priority probes")
	fmt.Println(" lock the same mutex — priority inheritance re-levels the holder)")
	pts := experiments.StateContention(cfg)
	fmt.Printf("%-12s %7s %10s %10s %10s %10s %9s %9s\n",
		"inheritance", "probes", "p50", "p95", "p99", "max", "inherits", "mtxparks")
	var onP99, offP99 time.Duration
	for _, pt := range pts {
		mode := "on"
		if !pt.Inherit {
			mode = "off"
		}
		if pt.Inherit {
			onP99 = pt.Probe.P99
		} else {
			offP99 = pt.Probe.P99
		}
		fmt.Printf("%-12s %7d %10v %10v %10v %10v %9d %9d\n",
			mode, pt.Probe.Count,
			pt.Probe.P50.Round(time.Microsecond), pt.Probe.P95.Round(time.Microsecond),
			pt.Probe.P99.Round(time.Microsecond), pt.Probe.Max.Round(time.Microsecond),
			pt.Stats.Inherits, pt.Stats.MutexParks)
	}
	out := stateRatio{Points: pts}
	if onP99 > 0 {
		out.P99Ratio = float64(offP99) / float64(onP99)
		fmt.Printf("p99 ratio (inheritance off / on): %.2fx\n", out.P99Ratio)
	}
	fmt.Println("three-lock chain (A->B->C holders, tail parked on IO; probes lock A):")
	out.ChainPoints = experiments.ChainContention(cfg)
	fmt.Printf("%-12s %7s %10s %10s %10s %10s %9s %11s\n",
		"inheritance", "probes", "p50", "p95", "p99", "max", "inherits", "transboosts")
	var chainOnP99, chainOffP99 time.Duration
	for _, pt := range out.ChainPoints {
		mode := "on"
		if !pt.Inherit {
			mode = "off"
		}
		if pt.Inherit {
			chainOnP99 = pt.Probe.P99
		} else {
			chainOffP99 = pt.Probe.P99
		}
		fmt.Printf("%-12s %7d %10v %10v %10v %10v %9d %11d\n",
			mode, pt.Probe.Count,
			pt.Probe.P50.Round(time.Microsecond), pt.Probe.P95.Round(time.Microsecond),
			pt.Probe.P99.Round(time.Microsecond), pt.Probe.Max.Round(time.Microsecond),
			pt.Stats.Inherits, pt.Stats.TransitiveBoosts)
	}
	if chainOnP99 > 0 {
		out.ChainP99Ratio = float64(chainOffP99) / float64(chainOnP99)
		fmt.Printf("chain p99 ratio (inheritance off / on): %.2fx\n", out.ChainP99Ratio)
	}
	out.Sharding = experiments.ShardScaling(cfg)
	fmt.Println("sharded-store scaling (3 reads per write, key-hashed shards):")
	fmt.Printf("%8s %16s\n", "shards", "ops/s")
	for _, sp := range out.Sharding {
		fmt.Printf("%8d %16.0f\n", sp.Shards, sp.OpsPerSec)
	}
	fmt.Println()
	return out
}

// l4iDir is bound to -l4i-dir; a package var because the experiment
// table's runners share one signature.
var l4iDir string

func l4i(cfg experiments.EvalConfig, iters int) any {
	fmt.Println("=== λ4i corpus: simulator vs compiled-onto-icilk wall time ===")
	pts, err := experiments.L4iBench(cfg, l4iDir, iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icilk-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%-20s %10s %12s %12s %8s %12s %12s %8s %6s\n",
		"program", "value", "machine", "icilk", "ratio", "mach-allocs", "icilk-allocs", "threads", "ceils")
	for _, pt := range pts {
		fmt.Printf("%-20s %10s %12v %12v %7.2fx %12.0f %12.0f %8d %6d\n",
			pt.Program, pt.Value,
			time.Duration(pt.MachineNs).Round(time.Microsecond),
			time.Duration(pt.CompiledNs).Round(time.Microsecond),
			pt.Ratio(), pt.MachineAllocs, pt.CompiledAllocs,
			pt.Threads, pt.CeilingViolations)
	}
	fmt.Println()
	return pts
}

func ioExp(cfg experiments.EvalConfig) any {
	fmt.Println("=== Per-request future tax: pooling, forwarding touch, completion absorption ===")
	res := experiments.IOBench(cfg)
	f := res.FastPath
	fmt.Printf("%-28s %10s %14s\n", "fast path (single worker)", "ns/op", "allocs/op")
	fmt.Printf("%-28s %10.1f %11.0f allocs/op  (pooling on)\n",
		"spawn+touch (pooled)", f.SpawnTouchPooledNs, f.SpawnTouchPooledAllocs)
	fmt.Printf("%-28s %10.1f %11.1f allocs/op  (pooling off)\n",
		"spawn+touch (unpooled)", f.SpawnTouchUnpooledNs, f.SpawnTouchUnpooledAllocs)
	fmt.Printf("%-28s %10.1f %11.0f allocs/op  (pooling on)\n",
		"promise complete+touch", f.PromiseTouchPooledNs, f.PromiseTouchPooledAllocs)
	fmt.Printf("%-28s %10.1f %11.1f allocs/op  (pooling off)\n",
		"promise complete+touch (off)", f.PromiseTouchUnpooledNs, f.PromiseTouchUnpooledAllocs)
	fmt.Printf("%-28s %10.1f %11.0f allocs/op  (done fast path)\n",
		"touch of done future", f.DoneTouchNs, f.DoneTouchAllocs)
	fmt.Printf("pool: %d hits, %d misses\n", res.PoolHits, res.PoolMisses)
	fw := res.Forward
	fmt.Printf("forwarding chain (%d hops): forward %.0f ns/chain (%d parks/round), "+
		"re-park %.0f ns/chain (%d parks/round), %d forwards, speedup %.2fx\n",
		fw.Hops, fw.ForwardChainNs, fw.ParksForward,
		fw.ReparkChainNs, fw.ParksRepark, fw.ForwardedTouches, fw.Speedup())
	fmt.Printf("completion absorption (one parked toucher per promise): %.0f completions/s, %d wakes\n",
		res.Completion.OpsPerSec, res.Completion.Wakes)
	fmt.Println()
	return res
}

func overload(cfg experiments.EvalConfig) any {
	fmt.Println("=== Overload robustness: shedding + deadlines across the capacity sweep ===")
	res, err := experiments.OverloadBench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icilk-bench: overload: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("calibrated capacity: %.0f req/s (%d workers, no admission policy)\n",
		res.CapacityOpsPerSec, res.Workers)
	for _, pt := range res.Points {
		fmt.Printf("load %s (%.0f req/s offered): sent=%d done=%d errors=%d\n",
			pt.Load, pt.Factor*res.CapacityOpsPerSec, pt.Sent, pt.Done, pt.Errors)
		fmt.Printf("  %-16s %4s %8s %12s %6s %6s %12s\n",
			"class", "prio", "ok", "goodput/s", "shed", "timeo", "p99")
		for _, row := range pt.Classes {
			fmt.Printf("  %-16s %4d %8d %12.0f %6d %6d %12v\n",
				row.Class, row.Prio, row.Done, row.Rate(), row.Shed, row.Timeouts,
				time.Duration(row.Tail()).Round(time.Microsecond))
		}
	}
	fmt.Printf("interactive classes at %s vs %s: goodput ratio %.2f, p99 ratio %.2f\n",
		res.Points[len(res.Points)-1].Load, res.Points[0].Load,
		res.InteractiveGoodputRatio, res.InteractiveP99Ratio)
	fmt.Println()
	return res
}

func lock(cfg experiments.EvalConfig) any {
	fmt.Println("=== Lock-free fast paths: uncontended cost and read-mostly scaling ===")
	res := experiments.LockFast(cfg)
	f := res.FastPath
	fmt.Printf("%-28s %10s %14s %8s\n", "fast path (uncontended)", "ns/op", "baseline ns/op", "ratio")
	fmt.Printf("%-28s %10.1f %14.1f %7.2fx  (vs sync.Mutex)\n",
		"Mutex.Lock+Unlock", f.MutexLockUnlockNs, f.SyncMutexLockUnlockNs, f.MutexOverhead())
	fmt.Printf("%-28s %10.1f %14s %8s\n", "Mutex.TryLock+Unlock", f.TryLockUnlockNs, "-", "-")
	central := "-"
	if f.RWMutexCentralRLockNs > 0 {
		central = fmt.Sprintf("%7.2fx", f.RWMutexRLockRUnlockNs/f.RWMutexCentralRLockNs)
	}
	fmt.Printf("%-28s %10.1f %14.1f %8s  (vs centralized readers)\n",
		"RWMutex.RLock+RUnlock", f.RWMutexRLockRUnlockNs, f.RWMutexCentralRLockNs, central)
	fmt.Printf("%-28s %10.1f %14.1f %7.2fx  (vs atomic load)\n",
		"Ref.Load", f.RefLoadNs, f.AtomicLoadNs, f.RefOverhead())
	fmt.Printf("%-28s %10.1f %14.1f %7s  (vs atomic add)\n",
		"Ref.Update", f.RefUpdateNs, f.AtomicAddNs, "-")
	fmt.Println()
	fmt.Printf("read-mostly scaling (1 write per 1024 reads, ~2µs read sections):\n")
	fmt.Printf("%8s %16s %16s %16s %9s %9s\n",
		"workers", "rw slotted op/s", "rw central op/s", "mutex ops/s", "speedup", "slotgain")
	for _, pt := range res.ReadScaling {
		fmt.Printf("%8d %16.0f %16.0f %16.0f %8.2fx %8.2fx\n",
			pt.Workers, pt.RWOpsPerSec, pt.RWCentralOpsPerSec, pt.MutexOpsPerSec,
			pt.Speedup(), pt.SlotGain())
	}
	fmt.Println()
	return res
}
