package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/jserver"
	"repro/internal/icilk"
	"repro/internal/workload"
)

// handlerFn computes one response body. self is the future of the task
// running the handler; slot-protocol handlers (email print) install it
// in the coordination slot.
type handlerFn func(c *icilk.Ctx, self icilk.Future[int]) (int, string)

// dispatch admits request seq to a priority class and spawns its handler
// at that class's level — the network edge of the paper's priority
// specifications. It runs on cn's reader goroutine, where I-Cilk's IO
// daemon hands a completed read to the scheduler: admission is atomics
// only, and the steps that need a task (counting the admission,
// tracking the session) are the handler's first statements.
//
// Handlers on one connection run concurrently, each at its own level,
// and each delivers its response to the connection's reorder buffer and
// returns (see deliver): HTTP/1.1's response order costs the client its
// head-of-line wait, but no task ever waits on another request, so a
// ping pipelined behind a batch job never waits on lower-priority work.
func (s *Server) dispatch(cn *sconn, seq uint64, req *request) {
	s.requests.Add(1)
	class, prio, run := s.route(req)
	cs := s.classes[class]
	if reason, ok := s.admitOrShed(class, cs); !ok {
		s.shedResponse(cn, seq, class, prio, reason)
		return
	}
	admitted := time.Now()
	ddl := s.deadlineFor(class)
	s.inflight.Add(1)
	cs.inflight.Add(1)
	icilk.GoSelf(s.rt, nil, prio, class, func(c *icilk.Ctx, self icilk.Future[int]) int {
		// Whatever happens in the handler, the request must get a
		// response in its place, or every later response on this
		// keep-alive connection would wait forever. A panic becomes a
		// 500; a deadline miss, the DeadlineError re-panicked by the
		// timed-out touch, a 503.
		status, text := 500, "internal error\n"
		timedOut := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if de, ok := r.(*icilk.DeadlineError); ok {
						timedOut = true
						status, text = 503, fmt.Sprintf("deadline exceeded after %v\n", de.After)
					} else {
						status, text = 500, fmt.Sprintf("handler panic: %v\n", r)
					}
				}
			}()
			// Counted here, not in the reader, so the counter's ceiling
			// check sees the true accessor priority; the stripe is the
			// running worker's, so concurrent handlers never contend on it.
			cs.admitted.Add(c, 1)
			s.trackSession(c, cn, req)
			if ddl > 0 {
				status, text = s.execDeadlined(c, prio, class, ddl, admitted, run)
			} else {
				status, text = run(c, self)
			}
		}()
		extra := ""
		if timedOut {
			cs.timeouts.Add(c, 1)
			extra = overloadHeaders("deadline")
		}
		s.deliver(cn, seq, reply{httpResponse(status, class, prio, extra, text), cs})
		return 0
	})
}

// admitOrShed is the admission gate: a draining server sheds everything
// (keep-alive clients cannot hold the drain open), and a class at its
// configured watermark sheds its own new arrivals while every other
// class proceeds — overload in the batch tier never costs an
// interactive admission.
func (s *Server) admitOrShed(class string, cs *classStats) (reason string, ok bool) {
	if s.draining.Load() {
		return "draining", false
	}
	if lim := s.cfg.ShedLimits[class]; lim > 0 && cs.inflight.Load() >= int64(lim) {
		return "shed", false
	}
	return "", true
}

// shedResponse answers a refused admission with a 503 without spawning
// the handler: the responder is a trivial top-level task (shedding must
// stay fast precisely when the refused class's queues are longest) that
// counts the refusal and delivers the response in the refused request's
// place, carrying the refused class and its true priority so the load
// generator attributes the shed to the right class. Shed responses do
// not count as inflight — during drain they are the only admissions,
// and counting them would hold the drain open.
func (s *Server) shedResponse(cn *sconn, seq uint64, class string, prio icilk.Priority, reason string) {
	body := "shed: " + class + " over capacity\n"
	if reason == "draining" {
		body = "shutting down\n"
	}
	icilk.Go(s.rt, nil, classPrio("error"), "error", func(c *icilk.Ctx) int {
		s.classes[class].shed.Add(c, 1)
		s.deliver(cn, seq, reply{data: httpResponse(503, class, prio, overloadHeaders(reason), body)})
		return 0
	})
}

// deadlineFor resolves a class's deadline budget.
func (s *Server) deadlineFor(class string) time.Duration {
	if d, ok := s.cfg.Deadlines[class]; ok {
		return d
	}
	return s.cfg.DefaultDeadline
}

// hres is one handler outcome, carried through the deadline promise.
type hres struct {
	status int
	text   string
}

// execDeadlined runs run in an inner task racing a FailAfter timer on
// an hres promise: whichever resolves first wins, and the loser's
// resolution is a no-op (first-writer-wins TryComplete / tryFinish). On
// expiry the touch below re-panics the *DeadlineError into dispatch's
// recover, which answers 503; the inner task is NOT preempted — it runs
// to completion and finds its TryComplete returning false. A request
// that already overspent its budget in the admission queue panics the
// same DeadlineError without spawning the inner task at all. The inner
// task passes its own future to run as self, so an email print's slot
// handle completes when the print work does, even after a 503.
//
// The deadline is the early answer, not the enforcement. It is a clock
// entry of the runtime, fired at the first task boundary or Checkpoint
// after it passes on any worker (or by the clock's fallback timer when
// every worker is parked), so it is late by at most the task that
// worker is running. A job whose kernel reaches no boundary before its
// budget runs out — one long task with no Checkpoint on a box whose
// other workers are just as busy — could still finish first and slip a
// 200 in. The inner task therefore re-checks the budget at completion
// time and fails the promise itself when the work finished late: that
// re-check is the backstop for work that never reaches a boundary, and
// a deadline miss is answered 503 whichever racer resolves first.
func (s *Server) execDeadlined(c *icilk.Ctx, prio icilk.Priority, class string, ddl time.Duration, admitted time.Time, run handlerFn) (int, string) {
	remaining := ddl - time.Since(admitted)
	if remaining <= 0 {
		panic(&icilk.DeadlineError{After: ddl, Prio: prio})
	}
	pr := icilk.NewPromiseIn[hres](c, prio)
	cancel := pr.FailAfter(remaining)
	icilk.GoSelf(s.rt, c, prio, class, func(c *icilk.Ctx, self icilk.Future[int]) int {
		st, tx := 500, "internal error\n"
		func() {
			defer func() {
				if r := recover(); r != nil {
					st, tx = 500, fmt.Sprintf("handler panic: %v\n", r)
				}
			}()
			st, tx = run(c, self)
		}()
		if time.Since(admitted) > ddl {
			// Finished, but past the budget: the miss stands even if the
			// timer has not fired yet (first-writer-wins either way).
			pr.TryFail(&icilk.DeadlineError{After: ddl, Prio: prio})
			return 0
		}
		if pr.TryComplete(hres{status: st, text: tx}) {
			cancel()
		}
		return 0
	})
	r := pr.Future().Touch(c)
	return r.status, r.text
}

// route is the admission table: request → (class name, priority level,
// handler). jserver jobs inherit jserver.PriorityOf — the
// smallest-work-first order of Section 5.1 — unchanged, because the
// serving runtime's four levels are the same four levels the simulated
// job server uses.
func (s *Server) route(req *request) (string, icilk.Priority, handlerFn) {
	fail := func(status int, msg string) (string, icilk.Priority, handlerFn) {
		return "error", classPrio("error"), func(*icilk.Ctx, icilk.Future[int]) (int, string) {
			return status, msg
		}
	}
	if req.method != "GET" {
		return fail(405, fmt.Sprintf("method %s not allowed\n", req.method))
	}
	switch req.path {
	case "/ping":
		return "ping", classPrio("ping"), func(*icilk.Ctx, icilk.Future[int]) (int, string) {
			return 200, "pong\n"
		}

	case "/stats":
		return "stats", classPrio("stats"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
			return 200, s.statsBody(c)
		}

	case "/jserver":
		jt, ok := jobType(req.query.Get("job"))
		if !ok {
			return fail(400, fmt.Sprintf("unknown job %q: want matmul, fib, sort, or sw\n",
				req.query.Get("job")))
		}
		prio := jserver.PriorityOf(jt)
		class := "jserver-" + jt.String()
		return class, prio, func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
			start := time.Now()
			s.jobs.Exec(s.rt, c, prio, jt)
			return 200, fmt.Sprintf("%s done in %v\n", jt, time.Since(start).Round(time.Microsecond))
		}

	case "/proxy":
		url := req.query.Get("url")
		if url == "" {
			return fail(400, "missing url parameter\n")
		}
		return "proxy", classPrio("proxy"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
			// Fastest path: the serve-layer response cache (proxy content
			// is deterministic, so whole bodies are safe to replay).
			if body, ok := s.cachedResponse(c, "proxy:"+url); ok {
				return 200, body
			}
			if body, ok := s.proxy.Lookup(c, url); ok {
				s.storeResponse(c, "proxy:"+url, body)
				return 200, body
			}
			// The event-side handler answers as soon as the fetch is
			// dispatched (the paper's responsiveness definition); the
			// content lands in the cache for the next request.
			fetchPrio := classPrio("proxy-fetch")
			icilk.Go(s.rt, c, fetchPrio, "proxy-fetch", func(c *icilk.Ctx) int {
				return len(s.proxy.Fetch(s.rt, c, fetchPrio, url))
			})
			return 202, "miss: fetch scheduled\n"
		}

	case "/email":
		user := atoiDefault(req.query.Get("user"), 0)
		switch op := req.query.Get("op"); op {
		case "send":
			return "email-send", classPrio("email-send"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
				s.email.Send(c, user)
				return 200, "sent\n"
			}
		case "sort":
			return "email-sort", classPrio("email-sort"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
				s.email.Sort(c, user)
				return 200, "sorted\n"
			}
		case "print":
			eid := atoiDefault(req.query.Get("id"), 0)
			return "email-print", classPrio("email-print"), func(c *icilk.Ctx, self icilk.Future[int]) (int, string) {
				s.email.Print(c, user, eid, self)
				return 200, "printed\n"
			}
		default:
			return fail(400, fmt.Sprintf("unknown op %q: want send, sort, or print\n", op))
		}
	}
	return fail(404, fmt.Sprintf("no such endpoint %s\n", req.path))
}

func jobType(name string) (workload.JobType, bool) {
	switch name {
	case "matmul":
		return workload.JobMatMul, true
	case "fib":
		return workload.JobFib, true
	case "sort":
		return workload.JobSort, true
	case "sw":
		return workload.JobSW, true
	}
	return 0, false
}

func atoiDefault(s string, def int) int {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return def
	}
	return n
}

// statsBody renders the server's counters, the shared-state stores, and
// the runtime's scheduler observables as text. It runs in the /stats
// handler task, so every store is read under its own ceilinged lock.
func (s *Server) statsBody(c *icilk.Ctx) string {
	var b strings.Builder
	fmt.Fprintf(&b, "uptime: %v\n", time.Since(s.start).Round(time.Millisecond))
	fmt.Fprintf(&b, "connections accepted: %d\n", s.accepted.Load())
	fmt.Fprintf(&b, "connections open: %d (refused %d)\n", s.connCount.Load(), s.refused.Load())
	fmt.Fprintf(&b, "requests: %d (%d in flight)\n", s.requests.Load(), s.inflight.Load())
	fmt.Fprintf(&b, "write errors: %d\n", s.writeErrs.Load())
	fmt.Fprintf(&b, "writes direct=%d fallback=%d\n", s.writesDirect.Load(), s.writesFallback.Load())
	kicks, polls := s.kicks.counts()
	fmt.Fprintf(&b, "reader kicks: %d (polls %d)\n", kicks, polls)
	fmt.Fprintf(&b, "proxy cache: %d hits, %d misses\n",
		s.proxy.Hits.Load(c), s.proxy.Misses.Load(c))
	rcN := 0
	s.rcache.Range(c, func(m map[string]string) { rcN += len(m) })
	fmt.Fprintf(&b, "response cache: %d entries, %d hits\n", rcN, s.rcacheHits.Load(c))
	var sessN int
	var sessReqs int64
	s.sess.Range(c, func(m map[string]*session) {
		sessN += len(m)
		for _, sess := range m {
			sessReqs += sess.requests
		}
	})
	fmt.Fprintf(&b, "sessions: %d tracked, %d requests\n", sessN, sessReqs)
	// Per-class tallies list only the classes with a nonzero count.
	classes := make([]string, 0, len(s.classes))
	for cl := range s.classes {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	writeClassCounts := func(title string, always bool, ctr func(*classStats) *icilk.StripedCounter) {
		var lines strings.Builder
		for _, cl := range classes {
			if n := ctr(s.classes[cl]).Load(c); n != 0 {
				fmt.Fprintf(&lines, "  %-16s %d\n", cl, n)
			}
		}
		if always || lines.Len() > 0 {
			b.WriteString(title + ":\n" + lines.String())
		}
	}
	writeClassCounts("admitted per class", true, func(cs *classStats) *icilk.StripedCounter { return cs.admitted })
	writeClassCounts("shed per class", false, func(cs *classStats) *icilk.StripedCounter { return cs.shed })
	writeClassCounts("deadline misses per class", false, func(cs *classStats) *icilk.StripedCounter { return cs.timeouts })
	if fl := s.cfg.Faults; fl != nil {
		fmt.Fprintf(&b, "injected faults: %v\n", fl.Stats())
	}
	fmt.Fprintf(&b, "scheduler: %v\n", s.rt.Stats())
	fmt.Fprintf(&b, "worker allocation (level per worker): %v\n", s.rt.Allocation())
	return b.String()
}
