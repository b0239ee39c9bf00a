package icilk_test

import (
	"fmt"
	"time"

	"repro/internal/icilk"
)

// ExampleGo spawns a task (the paper's fcreate) and waits for it from
// ordinary, non-task code with Await.
func ExampleGo() {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	f := icilk.Go(rt, nil, 1, "answer", func(c *icilk.Ctx) int {
		return 21 * 2
	})
	v, err := icilk.Await(f, time.Second)
	fmt.Println(v, err)
	// Output: 42 <nil>
}

// ExampleFuture_Touch shows ftouch from inside a task: the parent spawns
// a child at its own priority and touches the child's future. Touching
// an unstarted child on the parent's own deque runs it inline — a
// spawn/touch chain costs about as much as a function call.
func ExampleFuture_Touch() {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	sum := icilk.Go(rt, nil, 1, "parent", func(c *icilk.Ctx) int {
		left := icilk.Go(rt, c, 1, "child", func(c *icilk.Ctx) int { return 40 })
		right := 2
		return left.Touch(c) + right
	})
	v, _ := icilk.Await(sum, time.Second)
	fmt.Println(v)
	// Output: 42
}

// ExampleIO builds a latency-hiding IO future: the touching task parks —
// freeing its worker — until the (simulated) device completes.
func ExampleIO() {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	f := icilk.Go(rt, nil, 1, "reader", func(c *icilk.Ctx) string {
		io := icilk.IO(rt, 1, time.Millisecond, func() string { return "payload" })
		return io.Touch(c) // parks here; the worker runs other tasks
	})
	v, _ := icilk.Await(f, time.Second)
	fmt.Println(v)
	// Output: payload
}

// ExampleFuture_Done polls a future without blocking: useful from code
// that must not park (and, because a poll cannot invert priorities, Done
// skips the priority check).
func ExampleFuture_Done() {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	f := icilk.Go(rt, nil, 0, "slow", func(c *icilk.Ctx) string { return "done" })
	if _, err := icilk.Await(f, time.Second); err != nil {
		fmt.Println("await:", err)
		return
	}
	fmt.Println(f.Done())
	// Output: true
}

// ExampleRuntime_WaitIdle drains the runtime: WaitIdle blocks (on a
// completion signal, not a poll loop) until every spawned task and IO
// future has finished.
func ExampleRuntime_WaitIdle() {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	for i := 0; i < 8; i++ {
		icilk.Go(rt, nil, 1, "work", func(c *icilk.Ctx) int { return i })
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		fmt.Println("drain:", err)
		return
	}
	fmt.Println("outstanding:", rt.Outstanding())
	// Output: outstanding: 0
}

// ExampleNewPromise completes an IO future from an external goroutine —
// the pattern internal/serve uses with real sockets: a poller goroutine
// observes an event and resolves the promise, requeueing every parked
// toucher.
func ExampleNewPromise() {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	pr := icilk.NewPromise[string](rt, 1)
	go func() { // stands in for an acceptor/poller goroutine
		pr.Complete("hello from the network")
	}()
	f := icilk.Go(rt, nil, 1, "handler", func(c *icilk.Ctx) string {
		return pr.Future().Touch(c)
	})
	v, _ := icilk.Await(f, time.Second)
	fmt.Println(v)
	// Output: hello from the network
}
