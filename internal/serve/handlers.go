package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
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
		body := "shed: " + class + " over capacity\n"
		if reason == "draining" {
			body = "shutting down\n"
		}
		// Shed responses do not count as inflight — during drain they
		// are the only admissions, and counting them would hold the
		// drain open.
		s.answer503(cn, seq, class, prio, reason, body, cs.shed, nil)
		return
	}
	admitted := time.Now()
	ddl := s.deadlineFor(class)
	s.inflight.Add(1)
	cs.inflight.Add(1)
	dl := s.armDeadline(cn, seq, class, prio, cs, ddl)
	icilk.GoSelf(s.rt, nil, prio, class, func(c *icilk.Ctx, self icilk.Future[int]) int {
		// Whatever happens in the handler, the request must get a
		// response in its place, or every later response on this
		// keep-alive connection would wait forever: a panic becomes a
		// 500.
		status, text, extra := 500, "internal error\n", ""
		func() {
			defer func() {
				if r := recover(); r != nil {
					status, text = 500, fmt.Sprintf("handler panic: %v\n", r)
				}
			}()
			// Counted here, not in the reader, so the counter's ceiling
			// check sees the true accessor priority; the stripe is the
			// running worker's, so concurrent handlers never contend on it.
			cs.admitted.Add(c, 1)
			s.trackSession(c, cn, req)
			if dl == nil || time.Since(admitted) <= ddl {
				status, text = run(c, self)
			}
		}()
		if dl != nil {
			if !dl.claimed.CompareAndSwap(false, true) {
				return 0 // the deadline answered first
			}
			dl.cancel()
			// The budget re-check is the backstop for work that reached
			// no boundary after its entry fell due: a miss is a 503
			// whichever deliverer finds it.
			if time.Since(admitted) > ddl {
				cs.timeouts.Add(c, 1)
				status, text, extra = 503, deadlineBody(ddl), overloadHeaders("deadline")
			}
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

// answer503 answers request seq with a 503 without its handler: a shed
// admission, or a deadline that fell due before the handler finished.
// The responder is a trivial top-level task (shedding must stay fast
// precisely when the refused class's queues are longest) that counts
// the answer on tally and delivers it in the request's place, carrying
// the request's class and true priority so the load generator
// attributes it to the right class. cs is the admitted class whose
// inflight counts the response retires, nil for a shed.
func (s *Server) answer503(cn *sconn, seq uint64, class string, prio icilk.Priority, reason, body string, tally *icilk.StripedCounter, cs *classStats) {
	icilk.Go(s.rt, nil, classPrio("error"), "error", func(c *icilk.Ctx) int {
		tally.Add(c, 1)
		s.deliver(cn, seq, reply{httpResponse(503, class, prio, overloadHeaders(reason), body), cs})
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

// deadline is one deadlined request's right to answer. Its clock entry
// and its handler task race to claim it, and only the winner delivers,
// so the request is answered exactly once.
type deadline struct {
	claimed atomic.Bool
	cancel  func()
}

// armDeadline arms request seq's deadline, ddl from admission, as a
// runtime clock entry; nil when the class has none. The entry fires at
// the first task boundary or Checkpoint after it falls due on any
// worker (or on the clock's fallback timer when every worker is
// parked), outside any task. If it claims the request before the
// handler finishes, it answers 503 through answer503; the handler is
// not preempted, runs to completion and discards its result. A handler
// that finishes first cancels the entry and delivers its own answer.
func (s *Server) armDeadline(cn *sconn, seq uint64, class string, prio icilk.Priority, cs *classStats, ddl time.Duration) *deadline {
	if ddl <= 0 {
		return nil
	}
	dl := &deadline{}
	dl.cancel = s.rt.AfterFunc(ddl, func() {
		if dl.claimed.CompareAndSwap(false, true) {
			s.answer503(cn, seq, class, prio, "deadline", deadlineBody(ddl), cs.timeouts, cs)
		}
	})
	return dl
}

func deadlineBody(ddl time.Duration) string {
	return fmt.Sprintf("deadline exceeded after %v\n", ddl)
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
	return b.String()
}
