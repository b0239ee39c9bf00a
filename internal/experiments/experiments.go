// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Table 1 (static overhead of the priority type
// system), Figure 13 (responsiveness ratios for proxy and email), and
// Figure 14 (per-level compute-time ratios for proxy, email, and
// jserver). The same entry points back cmd/icilk-bench and the
// root-level benchmarks.
package experiments

import (
	"embed"
	"fmt"
	"time"

	"repro/internal/apps/email"
	"repro/internal/apps/jserver"
	"repro/internal/apps/proxy"
	"repro/internal/icilk"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/workload"
)

//go:embed testdata/*.l4i
var programs embed.FS

// caseStudies lists the λ4i models used by Table 1.
var caseStudies = []string{"proxy", "email", "jserver"}

// loadProgram reads an embedded λ4i source.
func loadProgram(name, variant string) (string, error) {
	b, err := programs.ReadFile(fmt.Sprintf("testdata/%s_%s.l4i", name, variant))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// CheckProgram parses and typechecks one embedded case-study model,
// returning the elaborated program. Used by tests and Table 1.
func CheckProgram(name, variant string, checkPriorities bool) (*parser.Program, error) {
	src, err := loadProgram(name, variant)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	c := types.New(prog.Order)
	c.CheckPriorities = checkPriorities
	got, err := c.Cmd(types.NewEnv(prog.Order), types.Signature{}, prog.Main, prog.MainPrio)
	if err != nil {
		return nil, err
	}
	if !astEqual(got, prog) {
		return nil, fmt.Errorf("experiments: %s/%s types at %s, declared %s",
			name, variant, got, prog.MainType)
	}
	return prog, nil
}

func astEqual(got fmt.Stringer, prog *parser.Program) bool {
	return got.String() == prog.MainType.String()
}

// RunProgram executes one embedded model on the machine and verifies the
// metatheory on its execution.
func RunProgram(name, variant string) error {
	prog, err := CheckProgram(name, variant, true)
	if err != nil {
		return err
	}
	mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
	if err := mc.Run(machine.Prompt{P: 2}, 1_000_000); err != nil {
		return err
	}
	return mc.VerifyExecution()
}

// Table1Row is one row of Table 1: the static cost of the priority
// machinery for one case study. Time is the parse+typecheck cost;
// Size is the elaborated program's printed size (our stand-in for binary
// size).
type Table1Row struct {
	App          string
	TimeNoPrio   time.Duration
	TimeWithPrio time.Duration
	SizeNoPrio   int
	SizeWithPrio int
}

// TimeOverhead returns TimeWithPrio / TimeNoPrio.
func (r Table1Row) TimeOverhead() float64 {
	return float64(r.TimeWithPrio) / float64(r.TimeNoPrio)
}

// SizeOverhead returns SizeWithPrio / SizeNoPrio.
func (r Table1Row) SizeOverhead() float64 {
	return float64(r.SizeWithPrio) / float64(r.SizeNoPrio)
}

// Table1 measures each case study's checking time and artifact size with
// and without priorities, averaging over iters iterations.
func Table1(iters int) ([]Table1Row, error) {
	if iters <= 0 {
		iters = 50
	}
	var rows []Table1Row
	for _, app := range caseStudies {
		row := Table1Row{App: app}
		for _, variant := range []string{"noprio", "prio"} {
			src, err := loadProgram(app, variant)
			if err != nil {
				return nil, err
			}
			checkPrio := variant == "prio"
			start := time.Now()
			var prog *parser.Program
			for i := 0; i < iters; i++ {
				p, err := parser.Parse(src)
				if err != nil {
					return nil, err
				}
				c := types.New(p.Order)
				c.CheckPriorities = checkPrio
				if _, err := c.Cmd(types.NewEnv(p.Order), types.Signature{}, p.Main, p.MainPrio); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", app, variant, err)
				}
				prog = p
			}
			elapsed := time.Since(start) / time.Duration(iters)
			size := len(prog.Main.String()) + len(prog.MainType.String())
			if variant == "prio" {
				row.TimeWithPrio = elapsed
				row.SizeWithPrio = size
			} else {
				row.TimeNoPrio = elapsed
				row.SizeNoPrio = size
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// EvalConfig parameterizes the dynamic experiments.
type EvalConfig struct {
	// Workers is the virtual core count P.
	Workers int
	// Duration is the request-generation window per data point.
	Duration time.Duration
	// Connections are the client counts swept for proxy and email
	// (the paper uses 90, 120, 150, 180).
	Connections []int
	// Seed makes runs reproducible.
	Seed int64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if len(c.Connections) == 0 {
		c.Connections = []int{90, 120, 150, 180}
	}
	if c.Seed == 0 {
		c.Seed = 20200406 // the paper's arXiv date
	}
	return c
}

// Fig13Row is one bar group of Figure 13: the responsiveness of one app
// at one connection count, as the ratio of baseline (Cilk-F) response
// time to I-Cilk response time — higher means I-Cilk is more responsive.
type Fig13Row struct {
	App         string
	Connections int
	ICilk       stats.Summary
	Baseline    stats.Summary
	RatioAvg    float64
	RatioP95    float64
}

// Fig13 reproduces Figure 13 for both apps across the connection sweep.
func Fig13(cfg EvalConfig) []Fig13Row {
	cfg = cfg.withDefaults()
	var rows []Fig13Row
	for _, app := range []string{"proxy", "email"} {
		for _, conns := range cfg.Connections {
			ic := runApp(app, cfg, conns, true).responses
			bl := runApp(app, cfg, conns, false).responses
			rows = append(rows, Fig13Row{
				App:         app,
				Connections: conns,
				ICilk:       ic,
				Baseline:    bl,
				RatioAvg:    stats.Ratio(bl.Mean, ic.Mean),
				RatioP95:    stats.Ratio(bl.P95, ic.P95),
			})
		}
	}
	return rows
}

// appRun is what one proxy or email run yields: the event-loop response
// summary, the per-component compute-time samples (keyed by the names
// in appComponents) and the scheduler event counters the run produced.
type appRun struct {
	responses  stats.Summary
	components map[string]*stats.Recorder
	sched      icilk.SchedStats
}

// runApp runs one app once on a fresh runtime. Fig. 13, Fig. 14 and the
// sched counters all read their numbers from it.
func runApp(app string, cfg EvalConfig, conns int, prioritize bool) appRun {
	var levels int
	var drive func(rt *icilk.Runtime) appRun
	switch app {
	case "proxy":
		levels = proxy.Levels
		drive = func(rt *icilk.Runtime) appRun {
			r := proxy.Run(rt, proxy.Config{Clients: conns, Duration: cfg.Duration, Seed: cfg.Seed})
			return appRun{responses: r.ResponseSummary(), components: r.Components}
		}
	case "email":
		levels = email.Levels
		drive = func(rt *icilk.Runtime) appRun {
			r := email.Run(rt, email.Config{Clients: conns, Duration: cfg.Duration, Seed: cfg.Seed})
			return appRun{responses: r.ResponseSummary(), components: r.Components}
		}
	default:
		panic("experiments: unknown app " + app)
	}
	rt := icilk.New(icilk.Config{
		Workers: cfg.Workers, Levels: levels, Prioritize: prioritize,
	})
	defer rt.Shutdown()
	out := drive(rt)
	out.sched = rt.Stats()
	return out
}

// Fig14Row is one bar group of Figure 14: per-component compute-time
// ratios (baseline time / I-Cilk time) for one app and load point, listed
// from the highest-priority component to the lowest.
type Fig14Row struct {
	App        string
	Load       string
	Components []Fig14Component
}

// Fig14Component is one bar: a component's compute-time ratio.
type Fig14Component struct {
	Name     string
	Prio     icilk.Priority
	ICilk    stats.Summary
	Baseline stats.Summary
	RatioAvg float64
	RatioP95 float64
}

// appComponents lists the measured components per app, highest priority
// first (the bar order of Figure 14).
var appComponents = map[string][]struct {
	Name string
	Prio icilk.Priority
}{
	"proxy": {
		{"event", proxy.PrioEvent},
		{"fetch", proxy.PrioFetch},
		{"stats", proxy.PrioStats},
	},
	"email": {
		{"event", email.PrioEvent},
		{"send", email.PrioSend},
		{"sort", email.PrioSort},
		{"print", email.PrioCompress},
		{"compress", email.PrioCompress},
		{"check", email.PrioCheck},
	},
}

// Fig14ProxyEmail reproduces the proxy and email panels of Figure 14.
func Fig14ProxyEmail(cfg EvalConfig) []Fig14Row {
	cfg = cfg.withDefaults()
	var rows []Fig14Row
	for _, app := range []string{"proxy", "email"} {
		for _, conns := range cfg.Connections {
			ic := runApp(app, cfg, conns, true).components
			bl := runApp(app, cfg, conns, false).components
			row := Fig14Row{App: app, Load: fmt.Sprintf("%d conns", conns)}
			for _, comp := range appComponents[app] {
				icS := ic[comp.Name].Summary()
				blS := bl[comp.Name].Summary()
				row.Components = append(row.Components, Fig14Component{
					Name:     comp.Name,
					Prio:     comp.Prio,
					ICilk:    icS,
					Baseline: blS,
					RatioAvg: stats.Ratio(blS.Mean, icS.Mean),
					RatioP95: stats.Ratio(blS.P95, icS.P95),
				})
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// JServerLoads approximates the paper's 64%, 77%, 95% and >95% server
// utilizations with decreasing mean interarrival times.
var JServerLoads = []struct {
	Name        string
	MeanArrival time.Duration
}{
	{"light (≈64%)", 24 * time.Millisecond},
	{"medium (≈77%)", 16 * time.Millisecond},
	{"heavy (≈95%)", 8 * time.Millisecond},
	{"overload (>95%)", 4 * time.Millisecond},
}

// Fig14JServer reproduces the jserver panel of Figure 14: per-job-type
// compute-time ratios across the load sweep.
func Fig14JServer(cfg EvalConfig) []Fig14Row {
	cfg = cfg.withDefaults()
	jobOrder := []workload.JobType{
		workload.JobMatMul, workload.JobFib, workload.JobSort, workload.JobSW,
	}
	var rows []Fig14Row
	for _, load := range JServerLoads {
		run := func(prioritize bool) jserver.Result {
			rt := icilk.New(icilk.Config{Workers: cfg.Workers, Levels: jserver.Levels, Prioritize: prioritize})
			defer rt.Shutdown()
			return jserver.Run(rt, jserver.Config{
				MeanArrival: load.MeanArrival,
				Duration:    cfg.Duration,
				Seed:        cfg.Seed,
			})
		}
		ic := run(true)
		bl := run(false)
		row := Fig14Row{App: "jserver", Load: load.Name}
		for i, jt := range jobOrder {
			icS := ic.Summary(jt)
			blS := bl.Summary(jt)
			row.Components = append(row.Components, Fig14Component{
				Name:     jt.String(),
				Prio:     icilk.Priority(3 - i),
				ICilk:    icS,
				Baseline: blS,
				RatioAvg: stats.Ratio(blS.Mean, icS.Mean),
				RatioP95: stats.Ratio(blS.P95, icS.P95),
			})
		}
		rows = append(rows, row)
	}
	return rows
}

// SchedPoint is one app run's scheduler event counters — the
// suspend/resume observables of the event-driven core (promotions,
// parks, resumes, touch-time helps, steals, wakes) next to the response
// summary they produced.
type SchedPoint struct {
	App        string
	Prioritize bool
	Stats      icilk.SchedStats
	Response   stats.Summary
}

// SchedCounters runs the proxy and email apps in both scheduler modes
// and reports the runtime's scheduler event counters, tying the
// responsiveness results to the scheduling behavior that produced them.
func SchedCounters(cfg EvalConfig) []SchedPoint {
	cfg = cfg.withDefaults()
	conns := cfg.Connections[0]
	var out []SchedPoint
	for _, app := range []string{"proxy", "email"} {
		for _, prioritize := range []bool{true, false} {
			r := runApp(app, cfg, conns, prioritize)
			out = append(out, SchedPoint{
				App: app, Prioritize: prioritize, Stats: r.sched, Response: r.responses,
			})
		}
	}
	return out
}
