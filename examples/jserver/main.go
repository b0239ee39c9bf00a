// The job-server case study (Section 5.1) as a runnable example:
// smallest-work-first priorities over four job types under Poisson
// arrivals, compared across schedulers.
//
// Run with: go run ./examples/jserver
package main

import (
	"fmt"
	"time"

	"repro/internal/apps/jserver"
	"repro/internal/icilk"
	"repro/internal/workload"
)

func main() {
	cfg := jserver.Config{
		MeanArrival: 6 * time.Millisecond,
		Duration:    600 * time.Millisecond,
		Seed:        1,
	}
	types := []workload.JobType{
		workload.JobMatMul, workload.JobFib, workload.JobSort, workload.JobSW,
	}
	for _, prioritize := range []bool{true, false} {
		rt := icilk.New(icilk.Config{Workers: 4, Levels: jserver.Levels, Prioritize: prioritize})
		res := jserver.Run(rt, cfg)
		rt.Shutdown()
		mode := "I-Cilk  "
		if !prioritize {
			mode = "baseline"
		}
		fmt.Printf("%s: %d jobs\n", mode, res.Jobs)
		for _, jt := range types {
			fmt.Printf("  %-7s (%3d jobs): %s\n", jt, len(res.PerType[jt]), res.Summary(jt))
		}
	}
}
