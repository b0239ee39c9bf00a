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
// specifications: the event loop stays at top priority and hands real
// work down to the level the admission table assigns.
//
// Handlers on one connection run concurrently, but HTTP/1.1 requires
// pipelined responses to leave in request order, so each handler
// inherits its predecessor's order token (an icilk future): it computes
// its response in parallel, touches the token before writing, and
// completes its own token once its response is on the socket. The
// tokens are created at the top level, so touching one is never a
// priority inversion regardless of the two handlers' classes.
func (s *Server) dispatch(c *icilk.Ctx, cn *sconn, req *request) {
	class, prio, run, self := s.route(req)
	if reason, ok := s.admitOrShed(class); !ok {
		s.shedResponse(c, cn, class, prio, reason)
		return
	}
	s.countAdmit(c, class)
	s.trackSession(c, cn, req)
	admitted := time.Now()
	ddl := s.deadlineFor(class)
	inflight := s.classInflight[class]
	s.inflight.Add(1)
	if inflight != nil {
		inflight.Add(1)
	}
	prev := cn.lastWrite
	// Pool-sourced: the order token is touched exactly once, by the
	// successor handler, which releases it (TouchRelease below). The
	// final token of a connection is never touched and falls to the GC.
	token := icilk.NewPromiseIn[int](c, PrioInteractive)
	cn.lastWrite = token.Future()
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
	icilk.Go(s.rt, c, prio, class, func(c *icilk.Ctx) int {
		// Completion is tracked with a closure-local flag, not
		// token.Resolved(): once Complete(0) lands, the successor's
		// TouchRelease may recycle the future before this defer runs,
		// and probing the (possibly reused) cell would race.
		completed := false
		defer func() {
			// Inflight retires only after the response write: the drain
			// phase's inflight==0 means every admitted request's bytes
			// are on (or refused by) its socket, not merely computed.
			if inflight != nil {
				inflight.Add(-1)
			}
			s.inflight.Add(-1)
			if !completed {
				token.Complete(-1) // backstop: never strand the successor
			}
		}()
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
			s.timeouts.add(c, class)
			extra = overloadHeaders("deadline")
		}
		prev.TouchRelease(c) // sole toucher of the predecessor's token
		s.respond(c, cn, prio, prio, class, status, extra, text)
		completed = true
		token.Complete(0)
		return 0
	})
}

// admitOrShed is the admission gate: a draining server sheds everything
// (keep-alive clients cannot hold the drain open), and a class at its
// configured watermark sheds its own new arrivals while every other
// class proceeds — overload in the batch tier never costs an
// interactive admission.
func (s *Server) admitOrShed(class string) (reason string, ok bool) {
	if s.draining.Load() {
		return "draining", false
	}
	if lim := s.cfg.ShedLimits[class]; lim > 0 {
		if ctr := s.classInflight[class]; ctr != nil && ctr.Load() >= int64(lim) {
			return "shed", false
		}
	}
	return "", true
}

// shedResponse answers a refused admission with a 503 without spawning
// the handler: the responder is a trivial top-level task (shedding must
// stay fast precisely when the refused class's queues are longest), it
// keeps the response-order token chain intact, and the response carries
// the refused class and its true priority so the load generator
// attributes the shed to the right class. Shed responses do not count
// as inflight — during drain they are the only admissions, and counting
// them would hold the drain open.
func (s *Server) shedResponse(c *icilk.Ctx, cn *sconn, class string, prio icilk.Priority, reason string) {
	s.shed.add(c, class)
	prev := cn.lastWrite
	token := icilk.NewPromiseIn[int](c, PrioInteractive)
	cn.lastWrite = token.Future()
	body := "shed: " + class + " over capacity\n"
	if reason == "draining" {
		body = "shutting down\n"
	}
	icilk.Go(s.rt, c, classPrio("error"), "error", func(c *icilk.Ctx) int {
		completed := false
		defer func() {
			if !completed {
				token.Complete(-1)
			}
		}()
		prev.TouchRelease(c)
		s.respond(c, cn, classPrio("error"), prio, class, 503, overloadHeaders(reason), body)
		completed = true
		token.Complete(0)
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

// execDeadlined runs exec in an inner task racing a FailAfter timer on
// an hres promise: whichever resolves first wins, and the loser's
// resolution is a no-op (first-writer-wins TryComplete / tryFinish). On
// expiry the touch below re-panics the *DeadlineError into dispatch's
// recover, which answers 503; the inner task is NOT preempted — it runs
// to completion and finds its TryComplete returning false. A request
// that already overspent its budget in the admission queue panics the
// same DeadlineError without spawning the inner task at all.
//
// The timer is the early answer, not the enforcement: on a saturated
// box the Go timer goroutine can be scheduled arbitrarily late (the
// claim-helping scheduler keeps every worker busy without parking, so
// nothing yields a P until preemption), and a job that overran its
// budget could slip a 200 in before the timer fires. The inner task
// therefore re-checks the budget at completion time and fails the
// promise itself when the work finished late — a deadline miss is
// answered 503 no matter which racer the Go runtime happened to run.
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
	// Sole toucher; the success path recycles the cell (a late timer
	// firing loses tryFinish's generation check), and the deadline path
	// panics before the release, so the cell falls to the GC instead —
	// the straggling inner task may still hold its Promise copy.
	r := pr.Future().TouchRelease(c)
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
	fmt.Fprintf(&b, "proxy cache: %d hits, %d misses\n",
		s.proxy.Hits.Load(c), s.proxy.Misses.Load(c))
	fmt.Fprintf(&b, "response cache: %d entries, %d hits\n",
		s.rcache.entries(c), s.rcacheHits.Load(c))
	sessN, sessReqs := s.sess.counts(c)
	fmt.Fprintf(&b, "sessions: %d tracked, %d requests\n", sessN, sessReqs)
	writeClassCounts := func(title string, m map[string]int64) {
		classes := make([]string, 0, len(m))
		for cl := range m {
			classes = append(classes, cl)
		}
		sort.Strings(classes)
		b.WriteString(title + ":\n")
		for _, cl := range classes {
			fmt.Fprintf(&b, "  %-16s %d\n", cl, m[cl])
		}
	}
	writeClassCounts("admitted per class", s.Admitted(c))
	if shed := s.shed.merged(c); len(shed) > 0 {
		writeClassCounts("shed per class", shed)
	}
	if to := s.timeouts.merged(c); len(to) > 0 {
		writeClassCounts("deadline misses per class", to)
	}
	if fl := s.cfg.Faults; fl != nil {
		fmt.Fprintf(&b, "injected faults: %v\n", fl.Stats())
	}
	fmt.Fprintf(&b, "scheduler: %v\n", s.rt.Stats())
	fmt.Fprintf(&b, "worker allocation (level per worker): %v\n", s.rt.Allocation())
	return b.String()
}
