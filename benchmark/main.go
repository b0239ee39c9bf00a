// Command benchmark is the repo benchmark: four workloads, five
// end-to-end metrics reported as the median of six windows over three
// set-ups, and a traced run that times every layer from outside. See
// README.md.
//
//	go run ./benchmark -workload ping_closed -seed 1   # one workload
//	go run ./benchmark                                 # all four
//	go run ./benchmark -workload state_rw -trace 1     # traced run + layer suite
//	go run ./benchmark -aa                             # same-code A/A gate
//
// A driver adds -seconds <run_seconds from BENCHMARK.json>; that value is
// the default, and the only run length the bounds were measured at.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Bound is the
// share of the median by which a metric may worsen before it is a
// regression; README.md gives the measured spread behind each.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"setup_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics. None is gated.
var perLayer = []metricDef{
	{Name: "serve.idle_ttfb_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.conn_setup_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.rss_end_mb", Unit: "MB", Better: "lower"},
	{Name: "icilk.spawns_per_req", Unit: "count", Better: "lower"},
	{Name: "icilk.promotions_per_req", Unit: "count", Better: "lower"},
	{Name: "icilk.parks_per_req", Unit: "count", Better: "lower"},
	{Name: "icilk.wakes_per_req", Unit: "count", Better: "lower"},
	{Name: "icilk.inline_share", Unit: "share", Better: "higher"},
	{Name: "icilk.poolhit_share", Unit: "share", Better: "higher"},
	{Name: "state.rwrevokes_per_req", Unit: "count", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "icilk.spawn_touch_ns", Unit: "ns", Better: "lower"},
	{Name: "icilk.park_resume_us", Unit: "us", Better: "lower"},
	{Name: "icilk.external_go_await_us", Unit: "us", Better: "lower"},
	{Name: "icilk.preempt_us", Unit: "us", Better: "lower"},
	{Name: "icilk.new_shutdown_us", Unit: "us", Better: "lower"},
	{Name: "state.mutex_lock_unlock_ns", Unit: "ns", Better: "lower"},
	{Name: "state.rwmutex_rlock_runlock_ns", Unit: "ns", Better: "lower"},
	{Name: "state.rwmutex_lock_unlock_ns", Unit: "ns", Better: "lower"},
	{Name: "state.ref_load_ns", Unit: "ns", Better: "lower"},
	{Name: "state.ref_update_ns", Unit: "ns", Better: "lower"},
	{Name: "state.contended_handoff_us", Unit: "us", Better: "lower"},
	{Name: "state.mutexparks_per_kop", Unit: "count", Better: "lower"},
	{Name: "state.rwrparks_per_kop", Unit: "count", Better: "lower"},
	{Name: "state.inherits_per_kop", Unit: "count", Better: "lower"},
	{Name: "state.rwrevokes_per_kop", Unit: "count", Better: "lower"},
	{Name: "workload.matmul_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.fib_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.sw_ms", Unit: "ms", Better: "lower"},
	{Name: "parser.parse_us", Unit: "us", Better: "lower"},
	{Name: "compile.check_us", Unit: "us", Better: "lower"},
	{Name: "compile.run_us", Unit: "us", Better: "lower"},
	{Name: "compile.run_allocs", Unit: "count", Better: "lower"},
	{Name: "compile.threads_per_run", Unit: "count", Better: "lower"},
	{Name: "machine.run_us", Unit: "us", Better: "lower"},
	{Name: "ref.nethttp_ping_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "ref.sync_mutex_ns", Unit: "ns", Better: "lower"},
	{Name: "ref.atomic_add_ns", Unit: "ns", Better: "lower"},
}

// workloadDef is one workload: its name, why it exists (the line
// BENCHMARK.json carries), and how to set it up. setup launches the
// program under test, waits until it is ready, reads its resident set
// size, and runs the fixed-count warm-up.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// gomaxprocs is the benchmark process's own setting while it runs
	// this workload, fixed so that the workload is scheduled alike on
	// every machine: the two workers of an in-process runtime under
	// test, plus two Ps where driver goroutines run beside them — with
	// none to spare, a paced driver's timer cannot fire until a worker's
	// goroutine is preempted (10 ms). l4i_corpus has one driver, blocked
	// while the workers run; Ps beyond the two cores only let the
	// collector's idle workers time-slice against the runtime under test.
	gomaxprocs int
	setup      func(e *env, seed int64) (inst instance, readyRSSMB float64, err error)
}

var workloads = []workloadDef{
	{"ping_closed", "constant handler, every request finds the server asleep: serve's request path and the scheduler's idle wake-up do all the work, kernels and state none", serverWorkers + 2,
		func(e *env, _ int64) (instance, float64, error) { return setupServer(e.serverBin, false) }},
	{"mix_priority", "the paper's experiment: batch jobs beside paced interactive requests, so level reassignment and the kernels do the work and serve little", serverWorkers + 2,
		func(e *env, _ int64) (instance, float64, error) { return setupServer(e.serverBin, true) }},
	{"state_rw", "shared state across priorities in-process: lock slow paths, inheritance and reader-bias revocation dominate; serve and compile are absent", serverWorkers + 2,
		func(_ *env, seed int64) (instance, float64, error) { return setupState(seed) }},
	{"l4i_corpus", "parser, checker and compiled backend do the work on thousands of short-lived runtimes; no sockets, no long-lived scheduler", serverWorkers,
		func(_ *env, seed int64) (instance, float64, error) { return setupL4i(seed) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what every run records about where it ran, and the server
// binary it built.
type env struct {
	Nproc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha"`

	root      string
	serverBin string
}

var selfPID = os.Getpid()

// errOneCPU is the environment guard: with one CPU the workers, the
// server and the load generator time-slice one core, and the numbers
// say nothing about this runtime.
var errOneCPU = errors.New("refusing to measure on fewer than 2 CPUs")

func newEnv() (*env, error) {
	e := &env{Nproc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if e.Nproc < 2 {
		return nil, errOneCPU
	}
	var err error
	if e.root, err = findRoot(); err != nil {
		return nil, err
	}
	e.GitSHA = gitSHA(e.root)
	if e.serverBin, err = buildServer(e.root); err != nil {
		return nil, err
	}
	return e, nil
}

// gitSHA names the commit being measured, or "unknown" outside a git
// checkout. The ceiling keeps git from adopting a repository above the
// checkout.
func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	status := exec.Command("git", "status", "--porcelain", "--untracked-files=no")
	status.Dir = root
	status.Env = cmd.Env
	if out, err := status.Output(); err == nil && len(out) > 0 {
		sha += "-dirty"
	}
	return sha
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed before the result: where the run happened and the
// per-window numbers the medians were taken from.
type detail struct {
	Workload string        `json:"workload"`
	GMP      int           `json:"gomaxprocs"`
	Seed     int64         `json:"seed"`
	Seconds  int           `json:"seconds"`
	Trace    bool          `json:"trace"`
	Env      *env          `json:"env"`
	Windows  []windowStats `json:"windows,omitempty"`
	SetupS   []float64     `json:"setup_s_each,omitempty"`
	SetupMB  []float64     `json:"setup_rss_mb_each,omitempty"`
	MaxLate  float64       `json:"loadgen_max_late_ms"`
	Behind   float64       `json:"loadgen_ended_behind_ms"`
	Spans    string        `json:"span_file,omitempty"`
	NumSpans int           `json:"spans,omitempty"`
	Error    string        `json:"first_error,omitempty"`
}

// runSeconds is how long an untraced run measures. It is
// BENCHMARK.json's run_seconds, which a driver passes as -seconds, and
// the length every spread in README.md and AA.md was taken at.
const runSeconds = 30

// An untraced run sets the workload up setUps times and measures each
// instance for its share of the windows, so that setup_s is a median
// and a mode that one start of the program under test falls into (a
// fresh server under mix_priority traffic has one, see README.md) spoils
// that instance's windows, not the run. setup_rss_mb is the smallest of the set-ups, because an
// in-process workload's later set-ups start on the heap the earlier ones
// left behind.
const (
	setUps          = 3
	windowsPerSetUp = numWindows / setUps
)

func countOps(rd runData) (attempted, failed int) {
	count := func(ss []sample) {
		for _, s := range ss {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	count(rd.fg)
	count(rd.bulk)
	return attempted, failed
}

// setUp sets the workload up once, timing it. Between repeats the
// collector returns freed memory to the OS, so the resident set of an
// in-process workload does not depend on the repeat before it.
func setUp(w workloadDef, e *env, seed int64) (instance, time.Duration, float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, rss, err := w.setup(e, seed)
	return inst, time.Since(t0), rss, err
}

// measure is the untraced run: three times, set up and measure two
// windows; report the median window.
func measure(w workloadDef, e *env, seed int64, seconds int, out io.Writer) (result, error) {
	runtime.GOMAXPROCS(w.gomaxprocs)
	d := detail{Workload: w.Name, GMP: w.gomaxprocs, Seed: seed, Seconds: seconds, Env: e}
	window := time.Duration(seconds) * time.Second / numWindows
	res := result{Metrics: map[string]metricValue{}}
	var late lateness
	var runErr error
	for i := 0; i < setUps; i++ {
		inst, took, rss, err := setUp(w, e, seed)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		d.SetupS = append(d.SetupS, took.Seconds())
		d.SetupMB = append(d.SetupMB, rss)
		rd := inst.run(time.Now(), windowsPerSetUp*window, nil)
		if err := inst.close(); err != nil {
			return result{}, err
		}
		late.merge(rd.late)
		d.Windows = append(d.Windows, windowize(rd.fg, rd.bulkStream(), windowsPerSetUp, window)...)
		a, f := countOps(rd)
		res.Attempted += a
		res.Failed += f
		runErr = firstError(runErr, rd.err)
	}
	d.MaxLate, d.Behind = ms(late.max), ms(late.behind)
	if err := late.check(); err != nil {
		printJSON(os.Stderr, d)
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Correct = runErr == nil
	if runErr != nil {
		d.Error = runErr.Error()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, runErr)
	}
	values := map[string]float64{
		"throughput_per_s": medianWindow(d.Windows, func(w windowStats) float64 { return w.ThroughputPerS }),
		"latency_p50_ms":   medianWindow(d.Windows, func(w windowStats) float64 { return w.P50Ms }),
		"latency_p95_ms":   medianWindow(d.Windows, func(w windowStats) float64 { return w.P95Ms }),
		"setup_s":          median(d.SetupS),
		"setup_rss_mb":     slices.Min(d.SetupMB),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return res, printJSON(out, d)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced is the traced run: one untraced window, one traced window of
// the same workload with spans kept in memory and written out at the
// end, then the layer suite. End-to-end metrics never come from here.
func traced(w workloadDef, e *env, seed int64, seconds int, out io.Writer) (result, error) {
	runtime.GOMAXPROCS(w.gomaxprocs)
	d := detail{Workload: w.Name, GMP: w.gomaxprocs, Seed: seed, Seconds: seconds, Trace: true, Env: e}
	inst, _, _, err := setUp(w, e, seed)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	window := time.Duration(seconds) * time.Second / numWindows
	cpu0, t0 := selfCPU(), time.Now()
	plain := inst.run(time.Now(), window, nil)
	tr := newTracer()
	withSpans := inst.run(time.Now(), window, tr)
	cpuShare := float64(selfCPU()-cpu0) / float64(time.Since(t0))
	if err := inst.close(); err != nil {
		return result{}, err
	}
	late := plain.late
	late.merge(withSpans.late)

	if d.Spans, d.NumSpans, err = tr.write(filepath.Join(e.root, outDir), w.Name); err != nil {
		return result{}, err
	}
	layers, err := layerSuite(e.serverBin, seed, &late)
	if err != nil {
		return result{}, fmt.Errorf("layer suite: %w", err)
	}
	if err := late.check(); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}

	pw := windowize(plain.fg, plain.bulkStream(), 1, window)[0]
	tw := windowize(withSpans.fg, withSpans.bulkStream(), 1, window)[0]
	d.Windows = []windowStats{pw, tw}
	layers["client.latency_p99_ms"] = pw.P99Ms
	layers["loadgen.max_late_ms"] = ms(late.max)
	layers["loadgen.cpu_share"] = cpuShare
	layers["trace.overhead_share"] = 1 - ratio(tw.ThroughputPerS, pw.ThroughputPerS)

	runErr := firstError(plain.err, withSpans.err)
	res := result{Correct: runErr == nil, Metrics: map[string]metricValue{}}
	for _, rd := range []runData{plain, withSpans} {
		a, f := countOps(rd)
		res.Attempted += a
		res.Failed += f
	}
	if runErr != nil {
		d.Error = runErr.Error()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, runErr)
	}
	for _, m := range perLayer {
		v, ok := layers[m.Name]
		if !ok {
			return result{}, fmt.Errorf("layer suite did not measure %s", m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return res, printJSON(out, d)
}

func printJSON(out io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all of them)")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = fs.Int("seconds", runSeconds, "measurement length, split into six windows; a driver passes BENCHMARK.json's run_seconds, which is the default")
		trace   = fs.Int("trace", 0, "1: traced run (spans under benchmark/out/, then the layer suite) printing the per-layer metrics")
		aa      = fs.Bool("aa", false, "A/A gate: run every workload twice on this build and compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{w}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *aa {
		return runAA(e, *seed, stdout, stderr)
	}

	if len(selected) == 1 {
		one := measure
		if *trace == 1 {
			one = traced
		}
		res, err := one(selected[0], e, *seed, *seconds, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return finish(stdout, res)
	}
	// Several workloads: one process each, as a driver would run them —
	// the resident set of an in-process workload must not include what
	// the workloads before it left on the heap. The last line merges
	// them, each metric prefixed with its workload.
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		res, err := runChild(w, *seed, *seconds, *trace, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.Name+"."+k] = v
		}
	}
	return finish(stdout, all)
}

// finish prints the result line and turns it into the exit code.
func finish(stdout io.Writer, res result) int {
	if err := printJSON(stdout, res); err != nil || !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload in a process of its own — this program
// again — copies what it prints to out, and returns its result line.
func runChild(w workloadDef, seed int64, seconds, trace int, out, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = stderr
	stdout, err := cmd.Output()
	out.Write(stdout)
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return result{}, fmt.Errorf("%s: no result line (%v)", w.Name, firstError(err, jerr))
	}
	return res, nil
}
