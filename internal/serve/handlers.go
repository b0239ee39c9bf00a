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

// handlerFn computes one response body. self is non-nil only for
// slot-protocol handlers (email print), which receive their own future
// to install in the coordination slot.
type handlerFn func(c *icilk.Ctx, self icilk.Future[int]) (int, string)

// dispatch admits req to a priority class and spawns its handler at that
// class's level — the network edge of the paper's priority
// specifications. It runs on cn's reader goroutine, where I-Cilk's IO
// daemon hands a completed read to the scheduler: admission is atomics
// only, and the steps that need a task (counting the admission,
// tracking the session) are the handler's first statements.
//
// Handlers on one connection run concurrently, but HTTP/1.1 requires
// pipelined responses to leave in request order, so each handler
// inherits its predecessor's order token (an icilk future): it computes
// its response in parallel, touches the token before writing, and
// completes its own token once its response is on the socket. The
// tokens are created at the top level, so touching one is never a
// priority inversion regardless of the two handlers' classes.
func (s *Server) dispatch(cn *sconn, req *request) {
	s.requests.Add(1)
	cn.unanswered.Add(1)
	prev := cn.lastWrite
	token := icilk.NewPromise[int](s.rt, PrioInteractive)
	cn.lastWrite = token.Future()
	class, prio, run, self := s.route(req)
	cs := s.classes[class]
	if reason, ok := s.admitOrShed(class, cs); !ok {
		s.shedResponse(cn, class, prio, reason, prev, token)
		return
	}
	admitted := time.Now()
	ddl := s.deadlineFor(class)
	s.inflight.Add(1)
	cs.inflight.Add(1)
	// A slot-protocol handler (email print) runs as its own inner task
	// so the future it installs in the coordination slot completes as
	// soon as the print work does. Spanning the response write with that
	// future would let the slot protocol and the order chain form a
	// circular wait: print A parks on B's slot handle while B's task end
	// parks on A's order token.
	exec := func(c *icilk.Ctx) (int, string) {
		if !self {
			return run(c, icilk.Future[int]{})
		}
		var status int
		var text string
		inner := icilk.GoSelf(s.rt, c, prio, class,
			func(c *icilk.Ctx, fut icilk.Future[int]) int {
				status, text = run(c, fut)
				return 0
			})
		inner.Touch(c) // re-panics an inner failure into the recover below
		return status, text
	}
	icilk.Go(s.rt, nil, prio, class, func(c *icilk.Ctx) int {
		defer func() {
			// Inflight retires only after the response write: the drain
			// phase's inflight==0 means every admitted request's bytes
			// are on (or refused by) its socket, not merely computed.
			cs.inflight.Add(-1)
			s.inflight.Add(-1)
			cn.retire(token)
		}()
		// Counted here, not in the reader, so the counter's ceiling check
		// sees the true accessor priority; the stripe is the running
		// worker's, so concurrent handlers never contend on it.
		cs.admitted.Add(c, 1)
		s.trackSession(c, cn, req)
		// A panicking handler must still emit a response in its slot,
		// or every later response on this keep-alive connection would
		// be attributed to the wrong request. A deadline miss is the
		// same shape with a different answer: the DeadlineError
		// re-panicked by the timed-out touch becomes a 503.
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
			if ddl > 0 {
				status, text = s.execDeadlined(c, prio, class, ddl, admitted, exec)
			} else {
				status, text = exec(c)
			}
		}()
		extra := ""
		if timedOut {
			cs.timeouts.Add(c, 1)
			extra = overloadHeaders("deadline")
		}
		prev.Touch(c)
		s.respond(c, cn, prio, prio, class, status, extra, text)
		token.Complete(0)
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
// counts the refusal, it takes the refused request's place in the
// response-order token chain (prev and token), and the response carries
// the refused class and its true priority so the load generator
// attributes the shed to the right class. Shed responses do not count
// as inflight — during drain they are the only admissions, and counting
// them would hold the drain open.
func (s *Server) shedResponse(cn *sconn, class string, prio icilk.Priority, reason string, prev icilk.Future[int], token icilk.Promise[int]) {
	body := "shed: " + class + " over capacity\n"
	if reason == "draining" {
		body = "shutting down\n"
	}
	icilk.Go(s.rt, nil, classPrio("error"), "error", func(c *icilk.Ctx) int {
		defer cn.retire(token)
		s.classes[class].shed.Add(c, 1)
		prev.Touch(c)
		s.respond(c, cn, classPrio("error"), prio, class, 503, overloadHeaders(reason), body)
		token.Complete(0)
		return 0
	})
}

// retire is the last step of the task that answers one of cn's
// requests, whatever its fate; the backstop completion never strands
// the successor in the order chain.
func (cn *sconn) retire(token icilk.Promise[int]) {
	cn.unanswered.Add(-1)
	if !token.Resolved() {
		token.Complete(-1)
	}
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

// execDeadlined runs exec in an inner task racing a FailAfter timer on
// an hres promise: whichever resolves first wins, and the loser's
// resolution is a no-op (first-writer-wins TryComplete / tryFinish). On
// expiry the touch below re-panics the *DeadlineError into dispatch's
// recover, which answers 503; the inner task is NOT preempted — it runs
// to completion and finds its TryComplete returning false. A request
// that already overspent its budget in the admission queue panics the
// same DeadlineError without spawning the inner task at all.
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
func (s *Server) execDeadlined(c *icilk.Ctx, prio icilk.Priority, class string, ddl time.Duration, admitted time.Time, exec func(*icilk.Ctx) (int, string)) (int, string) {
	remaining := ddl - time.Since(admitted)
	if remaining <= 0 {
		panic(&icilk.DeadlineError{After: ddl, Prio: prio})
	}
	pr := icilk.NewPromiseIn[hres](c, prio)
	cancel := pr.FailAfter(remaining)
	icilk.Go(s.rt, c, prio, class, func(c *icilk.Ctx) int {
		st, tx := 500, "internal error\n"
		func() {
			defer func() {
				if r := recover(); r != nil {
					st, tx = 500, fmt.Sprintf("handler panic: %v\n", r)
				}
			}()
			st, tx = exec(c)
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
func (s *Server) route(req *request) (string, icilk.Priority, handlerFn, bool) {
	fail := func(status int, msg string) (string, icilk.Priority, handlerFn, bool) {
		return "error", classPrio("error"), func(*icilk.Ctx, icilk.Future[int]) (int, string) {
			return status, msg
		}, false
	}
	if req.method != "GET" {
		return fail(405, fmt.Sprintf("method %s not allowed\n", req.method))
	}
	switch req.path {
	case "/ping":
		return "ping", classPrio("ping"), func(*icilk.Ctx, icilk.Future[int]) (int, string) {
			return 200, "pong\n"
		}, false

	case "/stats":
		return "stats", classPrio("stats"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
			return 200, s.statsBody(c)
		}, false

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
		}, false

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
		}, false

	case "/email":
		user := atoiDefault(req.query.Get("user"), 0)
		switch op := req.query.Get("op"); op {
		case "send":
			return "email-send", classPrio("email-send"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
				s.email.Send(c, user)
				return 200, "sent\n"
			}, false
		case "sort":
			return "email-sort", classPrio("email-sort"), func(c *icilk.Ctx, _ icilk.Future[int]) (int, string) {
				s.email.Sort(c, user)
				return 200, "sorted\n"
			}, false
		case "print":
			eid := atoiDefault(req.query.Get("id"), 0)
			return "email-print", classPrio("email-print"), func(c *icilk.Ctx, self icilk.Future[int]) (int, string) {
				s.email.Print(c, user, eid, self)
				return 200, "printed\n"
			}, true
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
