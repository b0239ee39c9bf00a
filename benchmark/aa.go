package main

import (
	"fmt"
	"io"
	"time"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaDiff is how far apart two runs of the same code are on one metric:
// the worsening in whichever order is worse, since neither run is the
// baseline.
func aaDiff(m metricDef, a, b float64) float64 {
	return max(worsening(m, a, b), worsening(m, b, a))
}

// runAA is the A/A gate: every workload twice on the same build, same
// seed, a process per run; any end-to-end metric that differs by more
// than its bound fails the gate, and so does any failed operation. Runs
// are runSeconds long, the length the bounds were set at. The report is
// a markdown table (benchmark/AA.md keeps two of them).
func runAA(e *env, seed int64, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "## A/A at %s, %s — nproc %d, %s, seed %d, %d s per run\n\n",
		e.GitSHA, time.Now().UTC().Format("2006-01-02 15:04 MST"), e.Nproc, e.GoVersion, seed, runSeconds)
	fmt.Fprintln(stdout, "| workload | metric | unit | run A | run B | differ by | bound | |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|")
	pass := true
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			var err error
			if runs[i], err = runChild(w, seed, runSeconds, 0, io.Discard, stderr); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		for _, m := range endToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff, verdict := aaDiff(m, a, b), "ok"
			if diff > m.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4g | %.4g | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, a, b, 100*diff, 100*m.Bound, verdict)
		}
		attempted, failed := runs[0].Attempted+runs[1].Attempted, runs[0].Failed+runs[1].Failed
		verdict := "ok"
		if failed > 0 || !runs[0].Correct || !runs[1].Correct {
			verdict, pass = "FAIL", false
		}
		fmt.Fprintf(stdout, "| %s | ops_failed / ops_attempted | count | | | %d / %d | 0 | %s |\n", w.Name, failed, attempted, verdict)
	}
	if !pass {
		fmt.Fprintln(stdout, "\nA/A gate: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "\nA/A gate: pass")
	return 0
}
