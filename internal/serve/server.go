package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/textproto"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apps/email"
	"repro/internal/apps/jserver"
	"repro/internal/apps/proxy"
	"repro/internal/faultinject"
	"repro/internal/icilk"
	"repro/internal/simio"
	"repro/internal/workload"
)

// Priority classes of the serving runtime (Levels levels, highest = most
// urgent). jserver's smallest-work-first order maps directly onto them:
// jserver.PriorityOf already returns matmul=3, fib=2, sort=1, sw=0.
const (
	// PrioBulk runs the largest batch work (jserver sw).
	PrioBulk icilk.Priority = 0
	// PrioHeavy runs heavy but bounded work: jserver sort, proxy
	// fetches, email sort/print.
	PrioHeavy icilk.Priority = 1
	// PrioNormal runs medium work: jserver fib, email send.
	PrioNormal icilk.Priority = 2
	// PrioInteractive runs connection event loops and the smallest jobs:
	// ping, stats, proxy cache lookups, jserver matmul.
	PrioInteractive icilk.Priority = 3
)

// Levels is the number of priority levels the serving runtime uses.
const Levels = 4

// classPriorities is the authoritative admission table: every priority
// class the server can run a task at, by name. route() and the
// shared-store ceiling derivation both read it, so the two cannot
// drift: a class moved to another level automatically moves the
// ceilings of every store it touches. jserver job classes are absent —
// they inherit jserver.PriorityOf and are validated against Levels at
// construction.
var classPriorities = map[string]icilk.Priority{
	"conn-loop":   PrioInteractive, // per-connection event loops
	"ping":        PrioInteractive,
	"stats":       PrioInteractive,
	"proxy":       PrioInteractive,
	"proxy-fetch": PrioHeavy,
	"email-send":  PrioNormal,
	"email-sort":  PrioHeavy,
	"email-print": PrioHeavy,
	"error":       PrioInteractive,
}

// storeAccessors records, per shared store, the classes whose tasks
// access it (in either lock mode): countAdmit and trackSession run in
// the connection event loop, statsBody in the /stats handler, and the
// response cache is consulted and filled by the /proxy handler. The
// store's RWMutex ceilings (both modes — the same classes read and
// write here) derive from these constants instead of hand-picked
// literals; the derivation fails fast at construction on an unknown
// class or an out-of-range priority.
var storeAccessors = map[string][]string{
	"serve.admitted": {"conn-loop", "stats"},
	"serve.sessions": {"conn-loop", "stats"},
	"serve.rcache":   {"proxy", "stats"},
	// Shed refusals are counted by the event loop; deadline misses by
	// the timed-out handler task itself, which can run at any level —
	// conn-loop's PrioInteractive is the runtime's top level, so the
	// derived ceiling covers every possible bumper.
	"serve.shed":     {"conn-loop", "stats"},
	"serve.timeouts": {"conn-loop", "stats"},
}

// classPrio resolves a class name, panicking on a class the admission
// table does not declare — a routing bug, caught at the first request
// rather than silently running work at a made-up level.
func classPrio(class string) icilk.Priority {
	p, ok := classPriorities[class]
	if !ok {
		panic(fmt.Sprintf("serve: class %q missing from classPriorities", class))
	}
	return p
}

// checkLevelRange panics when a priority falls outside the runtime's
// [0, Levels) — the one shared fail-fast for every admission entry.
func checkLevelRange(label string, p icilk.Priority) {
	if p < 0 || int(p) >= Levels {
		panic(fmt.Sprintf("serve: %s priority %d outside [0, %d)", label, p, Levels))
	}
}

// derivedCeiling computes a store's lock ceiling: the highest priority
// among its declared accessor classes. It panics on a store or class
// the tables do not declare and on any out-of-range priority — the
// construction-time mismatch check that replaces trusting hand-picked
// ceiling literals to stay in sync with the classes.
func derivedCeiling(store string) icilk.Priority {
	classes, ok := storeAccessors[store]
	if !ok || len(classes) == 0 {
		panic(fmt.Sprintf("serve: store %q has no declared accessors", store))
	}
	ceil := icilk.Priority(-1)
	for _, cl := range classes {
		p := classPrio(cl)
		checkLevelRange(fmt.Sprintf("class %q", cl), p)
		if p > ceil {
			ceil = p
		}
	}
	return ceil
}

// validateAdmission checks the whole admission surface at construction:
// every declared class and every jserver job priority must fit the
// runtime's levels.
func validateAdmission() {
	for cl, p := range classPriorities {
		checkLevelRange(fmt.Sprintf("class %q", cl), p)
	}
	for _, jt := range []workload.JobType{workload.JobMatMul, workload.JobFib, workload.JobSort, workload.JobSW} {
		checkLevelRange(fmt.Sprintf("jserver job %s", jt), jserver.PriorityOf(jt))
	}
}

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:8080"; ":0" picks
	// a free port).
	Addr string
	// Workers is the icilk runtime's virtual core count (default 4).
	Workers int
	// Baseline disables the prioritized scheduler (Cilk-F comparison).
	Baseline bool
	// Jobs configures the jserver endpoint's kernel sizes (zero fields
	// take jserver's calibrated defaults).
	Jobs jserver.Config
	// Users is the email endpoint's mailbox count (default 8).
	Users int
	// Seed makes the simulated backends (proxy origin, email devices)
	// reproducible.
	Seed int64
	// DetectDeadlocks and RecordLockOrder pass the icilk debug flags
	// through to the embedded runtime: the deadlock cycle walk on every
	// contended acquire, and the hold→acquire lock-order recorder whose
	// LockOrderViolations report the serve tests assert empty. Both are
	// for tests and debug builds, not production serving.
	DetectDeadlocks bool
	RecordLockOrder bool

	// Deadlines maps admission class → per-request deadline budget,
	// measured from admission (so queueing delay counts). A request
	// whose handler misses its budget is answered 503 with Retry-After
	// and counted in /stats; the handler itself is not preempted — its
	// late result is discarded. Classes absent from the map fall back to
	// DefaultDeadline; zero means no deadline.
	Deadlines       map[string]time.Duration
	DefaultDeadline time.Duration

	// ShedLimits maps admission class → max outstanding (admitted but
	// not yet responded) requests. Past the watermark, new requests of
	// that class are refused 503 BEFORE their handler task is spawned —
	// the paper's responsiveness story as an admission policy: watermark
	// the batch classes and interactive traffic keeps its p99 through
	// saturation. Absent/zero = unlimited.
	ShedLimits map[string]int

	// MaxConns caps concurrently open accepted connections; over the
	// cap, new connections are answered one 503 and closed without ever
	// reaching the runtime. 0 = unlimited.
	MaxConns int

	// ReadHeaderTimeout bounds reading one request head once its first
	// byte has arrived; IdleTimeout bounds the wait for that first byte
	// between requests. Together they evict slowloris clients (trickling
	// a header forever) and idle keep-alive hoarders. Zero takes the
	// defaults (5s / 120s); negative disables.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration

	// DrainTimeout bounds Shutdown's drain phase: after the listener
	// closes, in-flight requests get up to this long to finish before
	// remaining connections are force-closed. Zero takes the default
	// (5s); negative skips straight to force-close.
	DrainTimeout time.Duration

	// Faults, when non-nil, injects seeded connection and completion
	// faults into every accepted connection and response write — the
	// chaos harness (icilk-serve -chaos). Nil serves cleanly.
	Faults *faultinject.Faults
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.Seed == 0 {
		c.Seed = 20200406
	}
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server serves the three case-study apps over real TCP on an icilk
// runtime. The goroutine split follows the paper's runtime/IO boundary:
// the acceptor and the per-connection readers are plain goroutines
// standing where I-Cilk's IO daemon stands — they observe socket events
// and resolve IO promises — while all request handling, including the
// response write whenever the socket takes it without blocking, runs as
// prioritized icilk tasks. Only a write the kernel will not take at
// once is handed to a goroutine (see respond).
type Server struct {
	cfg Config
	rt  *icilk.Runtime
	ln  net.Listener

	jobs  *jserver.JobSet
	proxy *proxy.Service
	email *email.Server
	start time.Time

	connMu sync.Mutex
	conns  map[*sconn]struct{}
	connWG sync.WaitGroup

	accepted  atomic.Int64
	requests  atomic.Int64
	writeErrs atomic.Int64
	shutdown  atomic.Bool

	// writesDirect counts responses the handler task wrote to the socket
	// itself; writesFallback those it had to hand (whole or in part) to
	// a writer goroutine. Served by /stats, so the fast path's hit rate
	// on real traffic is read, not assumed.
	writesDirect   atomic.Int64
	writesFallback atomic.Int64

	// Overload-protection state: connCount tracks open accepted
	// connections against cfg.MaxConns (refused counts the rejects);
	// inflight counts admitted-but-unresponded requests (the drain
	// phase's completion condition); classInflight is the same count per
	// admission class, read by the shedding watermark check. draining
	// flips during Shutdown's first phase: admissions then shed
	// everything so keep-alive clients cannot hold the drain open.
	connCount     atomic.Int64
	refused       atomic.Int64
	inflight      atomic.Int64
	classInflight map[string]*atomic.Int64
	draining      atomic.Bool

	// shed and timeouts count refused admissions and missed deadlines
	// per class (worker-striped like admits; served by /stats).
	shed     *admitTable
	timeouts *admitTable

	// Scheduler-visible shared state, sharded per shards.go: admits is
	// the worker-striped per-class admission table; sess tracks client
	// sessions (keyed by the sid query parameter, falling back to the
	// remote host) in key-hash shards; rcache caches whole response
	// bodies for idempotent endpoints in key-hash shards, with its hit
	// count in a worker-striped counter. Each shard sits behind its own
	// RWMutex whose ceilings derive from the admission table
	// (derivedCeiling: the max priority among each store's declared
	// accessor classes — PrioInteractive for all three today, recomputed
	// automatically if a class moves). All three surface in /stats,
	// merged across shards at read time.
	admits     *admitTable
	sess       *sessionStore
	rcache     *responseCache
	rcacheHits *icilk.StripedCounter
}

// session is one tracked client session.
type session struct {
	requests int64
	lastPath string
	lastSeen time.Time
}

// maxResponseCache bounds the response cache across all shards; a shard
// at its share of the cap drops itself on overflow (the workloads' key
// spaces are small, so anything smarter would never trigger).
const maxResponseCache = 4096

// maxSessions bounds the session store across all shards; a shard at
// its share of the cap evicts its least-recently-seen session on
// insert, so connection churn (every sid-less connection is its own
// session) cannot grow the maps without bound.
const maxSessions = 4096

// sconn is one accepted connection: the reader goroutine parses requests
// into queue and resolves pending, the event-loop task drains them.
type sconn struct {
	c net.Conn
	// raw is c's file descriptor handle for the handler-side direct
	// write; nil when c is not a raw socket (the faultinject wrapper
	// under -chaos), which sends every response down the fallback path.
	raw syscall.RawConn

	// closeOnce makes teardown idempotent: reader-error teardown, a
	// failed write, and Shutdown's force-close can all race to drop the
	// same connection; only the first Close's error is kept.
	closeOnce sync.Once
	closeErr  error

	mu      sync.Mutex
	queue   []*request
	closed  bool
	pending icilk.Promise[*request]

	// lastWrite is the response-order chain: the future that completes
	// when the most recently dispatched request's response has been
	// written. Only the event-loop task reads and replaces it, so it
	// needs no lock. The chain also means at most one response write per
	// connection is ever in flight — direct or fallback — so writes need
	// no per-conn lock.
	lastWrite icilk.Future[int]

	// wstate arbitrates the socket's write side between that chain and
	// the reader's parting answer to a malformed request: respond holds
	// it busy from its first byte to its last (across a fallback write),
	// and the reader writes only if it can move it from idle to closing,
	// after which respond writes nothing more. So the reader never queues
	// behind a stalled fallback write, and its 400 never lands inside a
	// response.
	wstate atomic.Int32
}

const (
	wIdle int32 = iota
	wBusy
	wClosing
)

// Start listens on cfg.Addr and begins serving.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	validateAdmission()
	rt := icilk.New(icilk.Config{
		Workers:         cfg.Workers,
		Levels:          Levels,
		Prioritize:      !cfg.Baseline,
		DetectDeadlocks: cfg.DetectDeadlocks,
		RecordLockOrder: cfg.RecordLockOrder,
		// Nothing in serve reads Records(): the per-task record log is
		// the evaluation harness's, and left on it costs every task three
		// time stamps and an append under one global mutex.
		DisableMetrics: true,
	})
	nshards := shardCount(cfg.Workers)
	// Every class the router can admit gets an inflight counter up
	// front; the map is immutable after Start, so watermark checks read
	// it without a lock.
	classInflight := map[string]*atomic.Int64{}
	for cl := range classPriorities {
		classInflight[cl] = &atomic.Int64{}
	}
	for _, jt := range []workload.JobType{workload.JobMatMul, workload.JobFib, workload.JobSort, workload.JobSW} {
		classInflight["jserver-"+jt.String()] = &atomic.Int64{}
	}
	s := &Server{
		cfg:           cfg,
		rt:            rt,
		ln:            ln,
		jobs:          jserver.NewJobSet(cfg.Jobs),
		proxy:         proxy.NewService(rt, simio.Latency{Base: 3 * time.Millisecond, Jitter: 5 * time.Millisecond}, cfg.Seed),
		email:         email.NewServer(rt, email.Config{Users: cfg.Users, Seed: cfg.Seed}),
		start:         time.Now(),
		conns:         map[*sconn]struct{}{},
		admits:        newAdmitTable(rt, nshards, "serve.admitted"),
		shed:          newAdmitTable(rt, nshards, "serve.shed"),
		timeouts:      newAdmitTable(rt, nshards, "serve.timeouts"),
		classInflight: classInflight,
		sess:          newSessionStore(rt, nshards),
		rcache:        newResponseCache(rt, nshards),
		rcacheHits:    icilk.NewStripedCounter(rt, derivedCeiling("serve.rcache")),
	}
	s.connWG.Add(1)
	go s.acceptor()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Runtime returns the underlying icilk runtime (diagnostics, tests).
func (s *Server) Runtime() *icilk.Runtime { return s.rt }

// acceptor accepts connections and hands each one a reader goroutine and
// an event-loop task.
func (s *Server) acceptor() {
	defer s.connWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed by Shutdown
			}
			// Transient accept failure (fd exhaustion, aborted
			// handshake): back off briefly and keep serving rather
			// than silently refusing all future connections.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if max := s.cfg.MaxConns; max > 0 && s.connCount.Load() >= int64(max) {
			// Over the cap: one 503 on a throwaway goroutine, never a
			// runtime task. The load check is racy by a connection or
			// two under an accept burst — a watermark, not a ledger.
			s.refused.Add(1)
			s.connWG.Add(1)
			go s.refuse(c)
			continue
		}
		s.accepted.Add(1)
		c = s.cfg.Faults.WrapConn(c) // no-op when chaos is off (nil Faults)
		cn := &sconn{c: c, lastWrite: icilk.Completed(PrioInteractive, 0)}
		if sc, ok := c.(syscall.Conn); ok {
			cn.raw, _ = sc.SyscallConn() // nil on error: fallback path only
		}
		s.connMu.Lock()
		if s.shutdown.Load() {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[cn] = struct{}{}
		s.connCount.Add(1)
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.reader(cn)
		s.eventLoop(cn)
	}
}

// refuse answers one over-cap connection with a 503 and closes it. The
// write gets a short deadline so a client that never reads cannot pin
// the goroutine past shutdown.
func (s *Server) refuse(c net.Conn) {
	defer s.connWG.Done()
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(time.Second))
	c.Write(httpResponse(503, "error", classPrio("error"), overloadHeaders("conns"),
		"server at connection capacity\n"))
}

// reader is cn's poller: it blocks in the kernel (via the netpoller) for
// request bytes and completes the connection's pending request promise on
// each arrival — the socket-readiness edge that drives the runtime.
func (s *Server) reader(cn *sconn) {
	defer s.connWG.Done()
	lim := &headLimiter{r: cn.c}
	br := bufio.NewReader(lim)
	tp := textproto.NewReader(br)
	idle, header := s.cfg.IdleTimeout, s.cfg.ReadHeaderTimeout
	for {
		req, err := s.readOne(cn, tp, br, lim, idle, header)
		cn.mu.Lock()
		if err != nil {
			cn.closed = true
			cn.queue = nil // a dead client gets no buffered work executed
			pr := cn.pending
			cn.pending = icilk.Promise[*request]{}
			cn.mu.Unlock()
			if pr.Valid() {
				pr.Complete(nil) // nil request = connection over
			}
			// A malformed request gets its answer before the drop, unless
			// a response is mid-write; the stream past it is unframed, so
			// the connection cannot live on either way. IO errors (EOF,
			// deadline, reset) get none.
			var re *reqError
			if errors.As(err, &re) && cn.wstate.CompareAndSwap(wIdle, wClosing) {
				cn.writeBestEffort(httpResponse(re.status, "error", classPrio("error"), "", re.msg+"\n"))
			}
			s.dropConn(cn)
			return
		}
		if pr := cn.pending; pr.Valid() {
			cn.pending = icilk.Promise[*request]{}
			cn.mu.Unlock()
			// The completion requeues the parked event loop and, if every
			// worker is asleep, wakes one at once; under load the wake is
			// one atomic add.
			pr.Complete(req)
			continue
		}
		if len(cn.queue) >= maxPipelined {
			// Pipelining far beyond anything a real client does: treat
			// it as abuse rather than buffering unbounded work.
			cn.closed = true
			cn.queue = nil
			cn.mu.Unlock()
			s.dropConn(cn)
			return
		}
		cn.queue = append(cn.queue, req)
		cn.mu.Unlock()
	}
}

// maxPipelined caps a connection's buffered (parsed but not yet
// dispatched) requests.
const maxPipelined = 256

// readOne reads one request under the anti-slowloris discipline: wait up
// to idle for the first byte, then give the whole head (and any declared
// body) at most header to finish and maxHeadBytes to fit in. A client
// that trickles one byte per second can hold a connection for at most
// idle + header, not forever.
func (s *Server) readOne(cn *sconn, tp *textproto.Reader, br *bufio.Reader, lim *headLimiter, idle, header time.Duration) (*request, error) {
	lim.budget = maxHeadBytes
	if idle > 0 {
		cn.c.SetReadDeadline(time.Now().Add(idle))
		if _, err := br.Peek(1); err != nil {
			return nil, err
		}
	}
	if header > 0 {
		cn.c.SetReadDeadline(time.Now().Add(header))
	} else if idle > 0 {
		cn.c.SetReadDeadline(time.Time{})
	}
	return parseRequest(tp, br, lim)
}

// dropConn tears down one connection. It is idempotent — reader-error
// teardown, write failure, and Shutdown's force-close may all call it —
// and only the first Close's error is recorded on the sconn.
func (s *Server) dropConn(cn *sconn) {
	cn.closeOnce.Do(func() {
		cn.closeErr = cn.c.Close()
		s.connMu.Lock()
		delete(s.conns, cn)
		s.connMu.Unlock()
		s.connCount.Add(-1)
	})
}

// nextBatch drains every already-buffered request on cn into buf —
// batched admission: the event loop admits a pipelined burst in one
// wakeup instead of one park/resume round-trip per request. With
// nothing buffered it registers a promise and returns a future for the
// reader to complete; the event loop parks on it, freeing its worker
// for exactly as long as the client takes. A closed connection returns
// an empty batch and an invalid (zero) future.
func (s *Server) nextBatch(c *icilk.Ctx, cn *sconn, buf []*request) ([]*request, icilk.Future[*request]) {
	cn.mu.Lock()
	// Closed beats buffered: no one can read the responses, so buffered
	// requests on a dead connection are dropped, not executed.
	if cn.closed {
		cn.queue = nil
		cn.mu.Unlock()
		return buf, icilk.Future[*request]{}
	}
	if len(cn.queue) > 0 {
		buf = append(buf, cn.queue...)
		cn.queue = cn.queue[:0]
		cn.mu.Unlock()
		return buf, icilk.Future[*request]{}
	}
	// Pool-sourced (NewPromiseIn) and released by the event loop's
	// TouchRelease: at steady state the wait-for-request promise costs
	// no allocation. The reader holds its Promise copy only for the
	// duration of the Complete call, so the release cannot race it.
	pr := icilk.NewPromiseIn[*request](c, PrioInteractive)
	cn.pending = pr
	cn.mu.Unlock()
	return buf, pr.Future()
}

// drainQueued appends cn's buffered requests to buf without registering
// a promise — the post-wakeup sweep that turns a pipelined burst into
// one batch.
func (s *Server) drainQueued(cn *sconn, buf []*request) []*request {
	cn.mu.Lock()
	if cn.closed {
		cn.queue = nil
	} else if len(cn.queue) > 0 {
		buf = append(buf, cn.queue...)
		cn.queue = cn.queue[:0]
	}
	cn.mu.Unlock()
	return buf
}

// eventLoop spawns cn's per-connection event loop: a top-priority task
// that drains the connection's buffered requests in one batch per
// wakeup, admits each to a priority class, dispatches the handlers at
// their classes' levels, and loops. It is the network analogue of the
// case studies' event loops. Dispatch order within a batch is queue
// order, so the response-order token chain sees the same sequence a
// one-at-a-time loop would.
func (s *Server) eventLoop(cn *sconn) {
	icilk.Go(s.rt, nil, classPrio("conn-loop"), "conn-loop", func(c *icilk.Ctx) int {
		n := 0
		var batch []*request
		for {
			var fut icilk.Future[*request]
			batch, fut = s.nextBatch(c, cn, batch[:0])
			if fut.Valid() {
				// This task is the future's only toucher and nothing
				// stores the handle, so release it back to the pool.
				req := fut.TouchRelease(c)
				if req == nil {
					return n
				}
				batch = append(batch, req)
				// Pick up anything that was pipelined behind the request
				// that woke us, so the whole burst is admitted this wakeup.
				batch = s.drainQueued(cn, batch)
			} else if len(batch) == 0 {
				return n // connection closed
			}
			for _, req := range batch {
				n++
				s.requests.Add(1)
				s.dispatch(c, cn, req)
			}
			c.Checkpoint()
		}
	})
}

// respond ships one response. The handler task first offers the bytes
// to the socket itself: one non-blocking write(2) through the
// connection's RawConn, which on a keep-alive connection with room in
// its send buffer — every small response — takes all of them, and the
// task carries on without a park, a goroutine or a wake. Only what the
// kernel would not take at once (a response larger than the send
// buffer, a client that is not reading) or a connection that is not a
// raw socket (the -chaos wrapper) goes to a writer goroutine, and the
// task parks on that write's promise, freeing its worker; a worker is
// never blocked in the netpoller either way. prio is the calling task's
// priority (the write promise's level); hdrPrio is the priority
// advertised in X-Priority — they differ only for shed responses, whose
// top-level responder reports the refused class's true level.
func (s *Server) respond(c *icilk.Ctx, cn *sconn, prio, hdrPrio icilk.Priority, class string, status int, extra, body string) {
	data := httpResponse(status, class, hdrPrio, extra, body)
	if !cn.wstate.CompareAndSwap(wIdle, wBusy) {
		// The reader is answering a malformed request and dropping the
		// connection; this response has nowhere to go.
		s.writeErrs.Add(1)
		return
	}
	n, err := cn.writeNow(data)
	switch {
	case err != nil:
		s.dropConn(cn)
		s.writeErrs.Add(1)
		return
	case n == len(data):
		cn.wstate.Store(wIdle)
		s.writesDirect.Add(1)
		return
	}
	s.writesFallback.Add(1)
	// Pool-sourced and released here: the write promise lives exactly
	// one response — this task is its only toucher, and the writer's
	// Complete has returned control of the cell before TouchRelease can
	// observe the completion.
	pr := icilk.NewPromiseIn[bool](c, prio)
	go s.writeRest(cn, data[n:], pr)
	if !pr.Future().TouchRelease(c) {
		s.writeErrs.Add(1)
	}
}

// writeBestEffort answers a connection that is about to be dropped (a
// malformed request). The caller holds wstate at closing, so no response
// write is in flight or will start: a raw socket gets whatever one
// non-blocking write takes, a wrapped connection a bounded blocking
// write.
func (cn *sconn) writeBestEffort(data []byte) {
	if cn.raw != nil {
		cn.writeNow(data)
		return
	}
	cn.c.SetWriteDeadline(time.Now().Add(time.Second))
	cn.c.Write(data)
}

// writeStall bounds one fallback write: a client that reads nothing for
// this long is treated as dead and its connection dropped, rather than
// holding its writer goroutine (and the handler parked on the write
// promise) forever.
const writeStall = 30 * time.Second

// writeRest is the fallback writer: it blocks (in the netpoller, on its
// own goroutine) until the rest of a response is on the socket, then
// completes the promise its handler is parked on with whether it got
// there. A failed or stalled write means the byte stream is dead or
// desynced, so the connection is dropped, which unblocks its reader and
// winds down the event loop and any buffered requests.
func (s *Server) writeRest(cn *sconn, rest []byte, pr icilk.Promise[bool]) {
	ok := true
	// Chaos hooks perturb the completion side of the write promise: a
	// delay holds the handler parked past the bytes landing, and an
	// injected failure reports the write dead (dropping the connection)
	// exactly as a failed socket write would — the promise still
	// resolves exactly once either way.
	if fl := s.cfg.Faults; fl != nil {
		if d := fl.CompleteDelay(); d > 0 {
			time.Sleep(d)
		}
		ok = !fl.CompleteFail()
	}
	if ok {
		cn.c.SetWriteDeadline(time.Now().Add(writeStall))
		_, err := cn.c.Write(rest)
		// Clear the deadline: left armed it would expire during a quiet
		// spell and fail the connection's next direct write.
		cn.c.SetWriteDeadline(time.Time{})
		ok = err == nil
	}
	if !ok {
		s.dropConn(cn)
	}
	cn.wstate.Store(wIdle)
	pr.Complete(ok)
}

// countAdmit records one admission into class (served by /stats). It
// runs in the event-loop task, so the admission table's stripe lock
// sees the true accessor priority; the stripe is the calling worker's,
// so concurrent event loops never contend here.
func (s *Server) countAdmit(c *icilk.Ctx, class string) {
	s.admits.add(c, class)
}

// Admitted returns the per-class admission counters, merged across the
// worker stripes under their read locks from the calling task.
func (s *Server) Admitted(c *icilk.Ctx) map[string]int64 {
	return s.admits.merged(c)
}

// trackSession updates the session store for one admitted request. The
// session key is the sid query parameter when the client sends one, the
// remote host otherwise (host only — the ephemeral port would make
// every connection a fresh session).
func (s *Server) trackSession(c *icilk.Ctx, cn *sconn, req *request) {
	key := req.query.Get("sid")
	if key == "" {
		key = cn.c.RemoteAddr().String()
		if host, _, err := net.SplitHostPort(key); err == nil {
			key = host
		}
	}
	s.sess.track(c, key, req.path)
}

// cachedResponse consults the shared response cache — a read lock on
// the key's shard, so concurrent handlers replaying cached bodies never
// serialize, even across different keys.
func (s *Server) cachedResponse(c *icilk.Ctx, key string) (string, bool) {
	body, ok := s.rcache.get(c, key)
	if ok {
		s.rcacheHits.Add(c, 1)
	}
	return body, ok
}

// storeResponse fills the shared response cache. Only deterministic,
// side-effect-free response bodies belong here.
func (s *Server) storeResponse(c *icilk.Ctx, key, body string) {
	s.rcache.put(c, key, body)
}

// Shutdown stops the server in two phases. Phase one (drain): close the
// listener, flip draining — every new admission now sheds with a 503 —
// and give already-admitted requests up to DrainTimeout to get their
// responses onto their sockets. Phase two (force): close every
// remaining connection (idempotent against racing reader teardowns),
// then run the established wind-down — readers exit and the runtime
// drains (a fallback write in flight is an outstanding promise, so the
// drain covers writers too). A clean drain means no in-flight request is
// ever cut off mid-response; the timeout bounds how long a stuck client
// can hold the process.
func (s *Server) Shutdown() error {
	if s.shutdown.Swap(true) {
		return nil
	}
	s.ln.Close()
	s.draining.Store(true)
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.connMu.Lock()
	conns := make([]*sconn, 0, len(s.conns))
	for cn := range s.conns {
		conns = append(conns, cn)
	}
	s.connMu.Unlock()
	for _, cn := range conns {
		s.dropConn(cn) // readers unblock with an error and finish the loops
	}
	s.connWG.Wait()
	err := s.rt.WaitIdle(30 * time.Second)
	s.rt.Shutdown()
	if err != nil {
		return fmt.Errorf("serve: shutdown drain: %w", err)
	}
	return nil
}
