// Quickstart: prioritized futures and shared state in five minutes.
//
// A high-priority "UI" task stays responsive while a low-priority
// background task crunches; they communicate through shared state (an
// atomic progress counter), exactly the pattern the paper's introduction
// says pure functional futures cannot express without a priority
// inversion.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/icilk"
)

const (
	prioBackground icilk.Priority = 0
	prioUI         icilk.Priority = 1
)

func main() {
	rt := icilk.New(icilk.Config{
		Workers:    2,
		Levels:     2,
		Prioritize: true,
	})
	defer rt.Shutdown()

	// Shared state: the background job publishes progress here. The UI
	// reads it without ftouching the low-priority future — touching it
	// would be a priority inversion, and the runtime would panic.
	var progress atomic.Int64

	background := icilk.Go(rt, nil, prioBackground, "optimize", func(c *icilk.Ctx) int {
		sum := 0
		for i := 0; i < 50; i++ {
			for j := 0; j < 400_000; j++ {
				sum += j % 7
			}
			progress.Store(int64(i + 1))
			c.Checkpoint() // preemption point: yields to ready higher-priority work
		}
		return sum
	})

	// The UI: five quick interactions, each spawned at high priority.
	for i := 0; i < 5; i++ {
		start := time.Now()
		ui := icilk.Go(rt, nil, prioUI, "ui", func(c *icilk.Ctx) string {
			return fmt.Sprintf("background at %d/50", progress.Load())
		})
		msg, err := icilk.Await(ui, time.Second)
		if err != nil {
			panic(err)
		}
		fmt.Printf("ui response %d: %q in %v\n", i, msg, time.Since(start).Round(time.Microsecond))
		time.Sleep(10 * time.Millisecond)
	}

	// Main (conceptually the lowest priority) may wait for the
	// background future: low touching low is no inversion. From outside
	// task code we use Await instead of Touch.
	v, err := icilk.Await(background, 30*time.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("background finished: %d\n", v)
}
