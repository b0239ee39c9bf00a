package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/jserver"
	"repro/internal/compile"
	"repro/internal/icilk"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/workload"
)

// The layer suite times each layer from outside, through its public
// calls, on a quiet box. It is the same in every traced run, whatever
// the workload, so a layer metric means one thing.

// layerSuite runs every layer timing and returns the metrics by name.
// late collects the lateness of the suite's one paced stream.
func layerSuite(serverBin string, seed int64, late *lateness) (map[string]float64, error) {
	m := map[string]float64{}
	for _, part := range []func(map[string]float64) error{
		func(m map[string]float64) error { return serveLayer(serverBin, m, late) },
		nethttpReference,
		icilkLayer,
		stateLayer,
		func(m map[string]float64) error { return stateCounters(seed, m) },
		workloadLayer,
		l4iLayer,
		hardwareReferences,
	} {
		if err := part(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// medianDur sorts ds and returns its median.
func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return percentile(ds, 0.5)
}

// perOp times batches of n calls of fn and returns the median batch's
// nanoseconds per call.
func perOp(batches, n int, fn func()) float64 {
	ds := make([]time.Duration, batches)
	for b := range ds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ds[b] = time.Since(t0)
	}
	return float64(medianDur(ds)) / float64(n)
}

// inTask runs fn as one task on rt and waits for it.
func inTask(rt *icilk.Runtime, p icilk.Priority, fn func(c *icilk.Ctx)) error {
	_, err := icilk.Await(icilk.Go(rt, nil, p, "probe", func(c *icilk.Ctx) int {
		fn(c)
		return 0
	}), ioDeadlineSlack)
	return err
}

func nop(*icilk.Ctx) int { return 0 }

var probeConfig = icilk.Config{Workers: serverWorkers, Levels: 2, Prioritize: true}

const (
	serveBurstPerConn = 3000
	serveIdleInterval = 10 * time.Millisecond // idle time-to-first-byte: 100 requests/s
	serveIdleRequests = 150
	serveConnSetups   = 200
)

// serveLayer measures the serve layer on a fresh server of its own:
// connection set-up, time to first byte on an idle server, and what one
// trivial request costs the server in CPU and scheduler events.
func serveLayer(bin string, m map[string]float64, late *lateness) error {
	p, err := startServer(bin)
	if err != nil {
		return err
	}
	defer p.stop()
	deadline := time.Now().Add(ioDeadlineSlack)

	setups := make([]time.Duration, serveConnSetups)
	for i := range setups {
		h, err := dial(p.addr, deadline)
		if err != nil {
			return err
		}
		setups[i] = h.connect
		h.close()
	}
	m["serve.conn_setup_p50_us"] = us(medianDur(setups))

	// One request every 10 ms leaves the server idle in between, so each
	// request pays the whole wake-up path.
	h, err := dial(p.addr, deadline)
	if err != nil {
		return err
	}
	defer h.close()
	var ttfb []time.Duration
	var idleErr error
	late.merge(pace(time.Now(), serveIdleRequests*serveIdleInterval, serveIdleInterval, func(_ int, due time.Time) {
		if idleErr != nil {
			return
		}
		if idleErr = h.send(reqPing.path); idleErr != nil {
			return
		}
		var r reply
		if r, idleErr = h.recv(); idleErr == nil {
			idleErr = reqPing.check(r)
			ttfb = append(ttfb, r.firstByte.Sub(due))
		}
	}))
	if idleErr != nil {
		return idleErr
	}
	m["serve.idle_ttfb_p50_us"] = us(medianDur(ttfb))

	// A fixed count of back-to-back pings on two connections, bracketed by
	// the server's own counters. Back to back, not at ping_closed's pace:
	// between paced requests the server's master still ticks, and its CPU
	// time would be charged to the requests (220 us each against 50-100).
	s0, err := fetchSched(p.addr)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(p.pid())
	if err != nil {
		return err
	}
	if err := loopBoth(p.addr, pingSpecs, 0, serveBurstPerConn, serveBurstPerConn); err != nil {
		return err
	}
	cpu1, err := procCPU(p.pid())
	if err != nil {
		return err
	}
	s1, err := fetchSched(p.addr)
	if err != nil {
		return err
	}
	reqs := float64(2 * serveBurstPerConn)
	delta := func(k string) float64 { return float64(s1[k] - s0[k]) }
	m["serve.cpu_us_per_req"] = us(cpu1-cpu0) / reqs
	m["icilk.spawns_per_req"] = delta("spawns") / reqs
	m["icilk.promotions_per_req"] = delta("promotions") / reqs
	m["icilk.parks_per_req"] = delta("parks") / reqs
	m["icilk.wakes_per_req"] = delta("wakes") / reqs
	m["icilk.inline_share"] = ratio(delta("inline"), delta("spawns"))
	m["icilk.poolhit_share"] = ratio(delta("poolhits"), delta("poolhits")+delta("poolmisses"))
	m["state.rwrevokes_per_req"] = delta("rwrevokes") / reqs
	if m["serve.rss_end_mb"], err = procRSSMB(p.pid()); err != nil {
		return err
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nethttpReference answers the same ping from a net/http handler on the
// same loopback with the same client: what the box allows.
func nethttpReference(m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Class", reqPing.class)
		w.Header().Set("X-Priority", fmt.Sprint(reqPing.prio))
		w.Write([]byte(reqPing.body))
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	h, err := dial(ln.Addr().String(), time.Now().Add(ioDeadlineSlack))
	if err != nil {
		return err
	}
	defer h.close()
	out, err := closedLoop(h, pingSpecs, 0, loopLimit{n: 2000}, time.Now(), nil, nil)
	if err != nil {
		return fmt.Errorf("net/http reference: %w", err)
	}
	rtts := make([]time.Duration, len(out))
	for i, s := range out {
		rtts[i] = s.latency()
	}
	m["ref.nethttp_ping_rtt_p50_us"] = us(medianDur(rtts))
	return nil
}

// icilkLayer times the scheduler's public calls on a private runtime.
func icilkLayer(m map[string]float64) error {
	rt := icilk.New(probeConfig)
	defer rt.Shutdown()

	// Go + Touch from inside a task: the inline spawn path.
	err := inTask(rt, 0, func(c *icilk.Ctx) {
		m["icilk.spawn_touch_ns"] = perOp(5, 20000, func() { icilk.Go(rt, c, 0, "child", nop).Touch(c) })
	})
	if err != nil {
		return err
	}

	// Touch of a promise that another goroutine completes once the
	// toucher has parked: completion → the task running again.
	type parked struct {
		pr    icilk.Promise[int]
		parks int64
	}
	handoff := make(chan parked)
	var completedAt time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range handoff {
			for limit := time.Now().Add(time.Millisecond); rt.Stats().Parks == p.parks && time.Now().Before(limit); {
				runtime.Gosched()
			}
			completedAt = time.Now()
			p.pr.Complete(1)
		}
	}()
	resumes := make([]time.Duration, 2000)
	err = inTask(rt, 0, func(c *icilk.Ctx) {
		for i := range resumes {
			pr := icilk.NewPromiseIn[int](c, 0)
			handoff <- parked{pr, rt.Stats().Parks}
			pr.Future().Touch(c)
			resumes[i] = time.Since(completedAt)
		}
	})
	close(handoff)
	wg.Wait()
	if err != nil {
		return err
	}
	m["icilk.park_resume_us"] = us(medianDur(resumes))

	// Go from outside + Await on a runtime left idle in between: the
	// path a request takes into a parked scheduler.
	awaits := make([]time.Duration, 500)
	for i := range awaits {
		time.Sleep(time.Millisecond)
		t0 := time.Now()
		if _, err := icilk.Await(icilk.Go(rt, nil, 1, "probe", nop), ioDeadlineSlack); err != nil {
			return err
		}
		awaits[i] = time.Since(t0)
	}
	m["icilk.external_go_await_us"] = us(medianDur(awaits))

	// Start delay of a level-1 task while both workers run level-0
	// tasks: how long the higher level waits for a worker.
	stop := startBacklog(rt, 0, stateBacklog)
	delays := make([]time.Duration, 400)
	for i := range delays {
		time.Sleep(time.Millisecond)
		t0 := time.Now()
		started, err := icilk.Await(icilk.Go(rt, nil, 1, "probe", func(*icilk.Ctx) time.Time { return time.Now() }), ioDeadlineSlack)
		if err != nil {
			stop()
			return err
		}
		delays[i] = started.Sub(t0)
	}
	stop()
	if err := rt.WaitIdle(ioDeadlineSlack); err != nil {
		return err
	}
	m["icilk.preempt_us"] = us(medianDur(delays))

	m["icilk.new_shutdown_us"] = perOp(5, 40, func() { icilk.New(probeConfig).Shutdown() }) / 1e3
	return nil
}

// stateLayer times the state primitives' uncontended fast paths from
// inside a task, and one contended hand-off.
func stateLayer(m map[string]float64) error {
	rt := icilk.New(probeConfig)
	defer rt.Shutdown()
	mu := icilk.NewMutex(rt, 1, "probe.mutex")
	rw := icilk.NewRWMutex(rt, 1, 1, "probe.rwmutex")
	ref := icilk.NewRef(rt, 1, 0)
	const batches, n = 5, 20000
	err := inTask(rt, 0, func(c *icilk.Ctx) {
		m["state.mutex_lock_unlock_ns"] = perOp(batches, n, func() { mu.Lock(c); mu.Unlock(c) })
		m["state.rwmutex_rlock_runlock_ns"] = perOp(batches, n, func() { rw.RLock(c); rw.RUnlock(c) })
		m["state.rwmutex_lock_unlock_ns"] = perOp(batches, n, func() { rw.Lock(c); rw.Unlock(c) })
		m["state.ref_load_ns"] = perOp(batches, n, func() { ref.Load(c) })
		m["state.ref_update_ns"] = perOp(batches, n, func() { ref.Update(c, func(v int) int { return v + 1 }) })
	})
	if err != nil {
		return err
	}

	// Contended hand-off: the holder unlocks once a waiter has parked on
	// the mutex; the time until the waiter holds the lock.
	handoffs := make([]time.Duration, 400)
	err = inTask(rt, 0, func(c *icilk.Ctx) {
		for i := range handoffs {
			mu.Lock(c)
			parks := rt.Stats().MutexParks
			waiter := icilk.Go(rt, c, 0, "waiter", func(c *icilk.Ctx) time.Time {
				mu.Lock(c)
				got := time.Now()
				mu.Unlock(c)
				return got
			})
			for limit := time.Now().Add(time.Millisecond); rt.Stats().MutexParks == parks && time.Now().Before(limit); {
				runtime.Gosched()
			}
			released := time.Now()
			mu.Unlock(c)
			handoffs[i] = waiter.Touch(c).Sub(released)
		}
	})
	if err != nil {
		return err
	}
	m["state.contended_handoff_us"] = us(medianDur(handoffs))
	return nil
}

// stateCounters runs a short stretch of the state_rw workload and
// reports the lock slow-path events per 1000 of its operations.
func stateCounters(seed int64, m map[string]float64) error {
	rt := icilk.New(icilk.Config{Workers: serverWorkers, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	s := &stateInst{rt: rt, t: newStateTable(rt), seed: seed}
	rd := s.run(time.Now(), 2*time.Second, nil)
	if rd.err != nil {
		return rd.err
	}
	kops := rd.counts["ops"] / 1000
	m["state.mutexparks_per_kop"] = ratio(rd.counts["mutexparks"], kops)
	m["state.rwrparks_per_kop"] = ratio(rd.counts["rwrparks"], kops)
	m["state.inherits_per_kop"] = ratio(rd.counts["inherits"], kops)
	m["state.rwrevokes_per_kop"] = ratio(rd.counts["rwrevokes"], kops)
	return nil
}

// workloadLayer times the four job kernels on a quiet runtime with the
// server's sizes and levels.
func workloadLayer(m map[string]float64) error {
	rt := icilk.New(icilk.Config{Workers: serverWorkers, Levels: jserver.Levels, Prioritize: true})
	defer rt.Shutdown()
	jobs := jserver.NewJobSet(jserver.Config{Seed: 20200406})
	for _, k := range []struct {
		name string
		jt   workload.JobType
		reps int
	}{
		{"workload.matmul_ms", workload.JobMatMul, 200},
		{"workload.fib_ms", workload.JobFib, 40},
		{"workload.sort_ms", workload.JobSort, 10},
		{"workload.sw_ms", workload.JobSW, 30},
	} {
		p := jserver.PriorityOf(k.jt)
		ds := make([]time.Duration, k.reps)
		err := inTask(rt, p, func(c *icilk.Ctx) {
			for i := range ds {
				t0 := time.Now()
				jobs.Exec(rt, c, p, k.jt)
				ds[i] = time.Since(t0)
			}
		})
		if err != nil {
			return err
		}
		m[k.name] = ms(medianDur(ds))
	}
	return nil
}

// l4iLayer times the λ4i pipeline stage by stage over the corpus. Each
// metric is the mean over the corpus programs of that program's median.
func l4iLayer(m map[string]float64) error {
	const reps = 7
	var parse, check, run, sim, allocs, threads float64
	corpus := generateCorpus()
	for _, p := range corpus {
		var parses, checks, runs []time.Duration
		var mallocs []float64
		var prog *parser.Program
		var cp *compile.Prog
		for i := 0; i < reps; i++ {
			var err error
			t0 := time.Now()
			if prog, err = parser.Parse(p.src); err != nil {
				return err
			}
			t1 := time.Now()
			if cp, err = compile.Compile(prog, true); err != nil {
				return err
			}
			t2 := time.Now()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := cp.Run(compile.RunConfig{Workers: serverWorkers})
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&m1)
			parses = append(parses, t1.Sub(t0))
			checks = append(checks, t2.Sub(t1))
			runs = append(runs, res.Elapsed)
			mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
			if i == 0 {
				threads += float64(res.Threads)
			}
		}
		// The simulator is the reference, and slow on the deep programs:
		// one run each.
		t0 := time.Now()
		mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
		if err := mc.Run(machine.Prompt{P: serverWorkers}, simulatorMaxSteps); err != nil {
			return err
		}
		sim += us(time.Since(t0))
		parse += us(medianDur(parses))
		check += us(medianDur(checks))
		run += us(medianDur(runs))
		allocs += median(mallocs)
	}
	n := float64(len(corpus))
	m["parser.parse_us"] = parse / n
	m["compile.check_us"] = check / n
	m["compile.run_us"] = run / n
	m["compile.run_allocs"] = allocs / n
	m["compile.threads_per_run"] = threads / n
	m["machine.run_us"] = sim / n
	return nil
}

// hardwareReferences times the two primitives everything above is
// built from, on the same box.
func hardwareReferences(m map[string]float64) error {
	var mu sync.Mutex
	var n atomic.Int64
	m["ref.sync_mutex_ns"] = perOp(5, 200000, func() { mu.Lock(); mu.Unlock() })
	m["ref.atomic_add_ns"] = perOp(5, 200000, func() { n.Add(1) })
	return nil
}
