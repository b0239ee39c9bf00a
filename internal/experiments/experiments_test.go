package experiments

import (
	"slices"
	"testing"
	"time"
)

// quickCfg keeps experiment tests fast.
func quickCfg() EvalConfig {
	return EvalConfig{
		Workers:     4,
		Duration:    120 * time.Millisecond,
		Connections: []int{20, 40},
		Seed:        7,
	}
}

func TestCaseStudyModelsCheckAndRun(t *testing.T) {
	for _, app := range caseStudies {
		for _, variant := range []string{"prio", "noprio"} {
			if _, err := CheckProgram(app, variant, true); err != nil {
				t.Errorf("%s/%s does not typecheck: %v", app, variant, err)
				continue
			}
			if err := RunProgram(app, variant); err != nil {
				t.Errorf("%s/%s does not run cleanly: %v", app, variant, err)
			}
		}
	}
}

func TestPrioModelsNeedPriorityChecking(t *testing.T) {
	// The prio variants must also typecheck with priority checking off —
	// structural typing is unchanged.
	for _, app := range caseStudies {
		if _, err := CheckProgram(app, "prio", false); err != nil {
			t.Errorf("%s/prio fails in no-priority mode: %v", app, err)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.TimeWithPrio <= 0 || r.TimeNoPrio <= 0 {
			t.Errorf("%s: nonpositive check times: %+v", r.App, r)
		}
		if r.SizeWithPrio <= r.SizeNoPrio {
			t.Errorf("%s: priority variant should be larger: %d vs %d",
				r.App, r.SizeWithPrio, r.SizeNoPrio)
		}
		if r.SizeOverhead() > 2.0 {
			t.Errorf("%s: size overhead %0.2f× is implausibly large", r.App, r.SizeOverhead())
		}
	}
}

func TestFig13ProducesRows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows := Fig13(quickCfg())
	if len(rows) != 4 { // 2 apps × 2 connection counts
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.ICilk.Count == 0 || r.Baseline.Count == 0 {
			t.Errorf("%s@%d: empty summaries", r.App, r.Connections)
		}
		if r.RatioAvg <= 0 {
			t.Errorf("%s@%d: ratio %f", r.App, r.Connections, r.RatioAvg)
		}
	}
}

func TestFig14ProxyEmailProducesRows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	cfg := quickCfg()
	cfg.Connections = []int{25}
	rows := Fig14ProxyEmail(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	wantComponents := map[string][]string{
		"proxy": {"event", "fetch", "stats"},
		"email": {"event", "send", "sort", "print", "compress", "check"},
	}
	for i, app := range []string{"proxy", "email"} {
		row := rows[i]
		if row.App != app {
			t.Fatalf("row %d is %s, want %s", i, row.App, app)
		}
		var names []string
		for _, comp := range row.Components {
			names = append(names, comp.Name)
		}
		if !slices.Equal(names, wantComponents[app]) {
			t.Errorf("%s components = %v, want %v", app, names, wantComponents[app])
		}
		for _, comp := range row.Components {
			if comp.ICilk.Count == 0 {
				t.Errorf("%s/%s: no I-Cilk samples", app, comp.Name)
			}
			if comp.Baseline.Count == 0 {
				t.Errorf("%s/%s: no baseline samples", app, comp.Name)
			}
		}
	}
}

func TestFig14JServerProducesRows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	cfg := quickCfg()
	cfg.Duration = 150 * time.Millisecond
	rows := Fig14JServer(cfg)
	if len(rows) != len(JServerLoads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(JServerLoads))
	}
	for _, row := range rows {
		if len(row.Components) != 4 {
			t.Errorf("%s: components = %d, want 4", row.Load, len(row.Components))
		}
	}
}

// TestStateContention smoke-checks the shared-state experiment: both
// modes produce probes, and the inheritance machinery demonstrably fires
// in (and only in) the inherit=true run.
func TestStateContention(t *testing.T) {
	pts := StateContention(EvalConfig{Duration: 120 * time.Millisecond})
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	for _, pt := range pts {
		if pt.Probe.Count == 0 {
			t.Errorf("inherit=%v: no probes completed", pt.Inherit)
		}
		if pt.Inherit && pt.Stats.Inherits == 0 {
			t.Error("inherit=true run recorded no inheritance events")
		}
		if !pt.Inherit && pt.Stats.Inherits != 0 {
			t.Errorf("inherit=false run recorded %d inheritance events", pt.Stats.Inherits)
		}
		if pt.Stats.MutexParks == 0 {
			t.Errorf("inherit=%v: no mutex contention measured", pt.Inherit)
		}
	}
}

// TestLockFast smoke-checks the lock-free fast-path experiment: every
// measured primitive produces a nonzero cost, the uncontended
// icilk.Mutex pair stays within an order of magnitude of raw sync.Mutex
// (the acceptance bound is 3x; 10x here keeps CI noise from flaking the
// build while still catching a fast-path regression back to the
// internal-lock implementation, which measured ~10-20x), and the
// scaling sweep emits one point per worker count.
func TestLockFast(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res := LockFast(EvalConfig{Workers: 2, Duration: 40 * time.Millisecond})
	f := res.FastPath
	for name, v := range map[string]float64{
		"mutex":      f.MutexLockUnlockNs,
		"sync.Mutex": f.SyncMutexLockUnlockNs,
		"trylock":    f.TryLockUnlockNs,
		"rlock":      f.RWMutexRLockRUnlockNs,
		"ref.Load":   f.RefLoadNs,
		"atomic":     f.AtomicLoadNs,
		"ref.Update": f.RefUpdateNs,
		"atomicAdd":  f.AtomicAddNs,
	} {
		if v <= 0 {
			t.Errorf("%s cost = %v ns/op, want > 0", name, v)
		}
	}
	if r := f.MutexOverhead(); r > 10 {
		t.Errorf("uncontended Mutex pair is %.1fx sync.Mutex; the CAS fast path has regressed", r)
	}
	if len(res.ReadScaling) == 0 {
		t.Error("no read-scaling points")
	}
	for _, pt := range res.ReadScaling {
		if pt.RWOpsPerSec <= 0 || pt.MutexOpsPerSec <= 0 {
			t.Errorf("workers=%d: zero throughput (rw=%.0f mutex=%.0f)",
				pt.Workers, pt.RWOpsPerSec, pt.MutexOpsPerSec)
		}
	}
}

// TestShardScaling smoke-checks the sharded-store sweep: shard counts
// double from 1 and every cell reports throughput.
func TestShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	pts := ShardScaling(EvalConfig{Workers: 2, Duration: 40 * time.Millisecond})
	if len(pts) < 2 {
		t.Fatalf("shard points = %d, want >= 2", len(pts))
	}
	for i, pt := range pts {
		if want := 1 << i; pt.Shards != want {
			t.Errorf("point %d: shards = %d, want %d", i, pt.Shards, want)
		}
		if pt.OpsPerSec <= 0 {
			t.Errorf("shards=%d: zero throughput", pt.Shards)
		}
	}
}

func TestL4iBench(t *testing.T) {
	// Embedded-corpus fallback (dir empty): the six case-study models
	// run under both backends and agree, with zero ceiling violations.
	pts, err := L4iBench(EvalConfig{Workers: 2}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6 embedded models", len(pts))
	}
	for _, pt := range pts {
		if pt.MachineNs <= 0 || pt.CompiledNs <= 0 {
			t.Errorf("%s: missing timing: machine=%v compiled=%v", pt.Program, pt.MachineNs, pt.CompiledNs)
		}
		if pt.CeilingViolations != 0 {
			t.Errorf("%s: %d ceiling violations", pt.Program, pt.CeilingViolations)
		}
		if pt.Value == "" {
			t.Errorf("%s: no value recorded", pt.Program)
		}
	}
	// Directory mode picks up the runnable examples.
	pts, err = L4iBench(EvalConfig{Workers: 2}, "../../examples/l4i", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("examples corpus points = %d, want >= 3", len(pts))
	}
}
