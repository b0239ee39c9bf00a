package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/textproto"
	"os"
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
	// PrioInteractive runs the smallest jobs — ping, stats, proxy cache
	// lookups, jserver matmul — and the error and shed responders.
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
// access it; the /stats handler reads them all. Each store's ceilings —
// both lock modes of the ShardedMaps (the same classes read and write
// here), and the single ceiling of the per-class StripedCounters —
// derive from these constants instead of hand-picked literals; the
// derivation fails fast at construction on an unknown class or an
// out-of-range priority.
var storeAccessors = map[string][]string{
	// Every handler task counts its own admission and tracks its
	// session at its class's level; ping's PrioInteractive is the top
	// level, so the ceiling covers them all.
	"serve.admitted": {"ping", "stats"},
	"serve.sessions": {"ping", "stats"},
	// A deadline miss is counted by the deadline's responder, at
	// error's level, or by a handler that finishes past its budget, at
	// its own class's level, which ping's covers.
	"serve.timeouts": {"error", "ping", "stats"},
	"serve.rcache":   {"proxy", "stats"}, // the /proxy handler
	"serve.shed":     {"error", "stats"}, // the shed responder
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
	// Debug passes icilk.Config.Debug through to the embedded runtime:
	// the deadlock cycle walk on every contended acquire and the
	// hold→acquire lock-order recorder whose LockOrderViolations report
	// the serve tests assert empty. It is for tests and debug builds,
	// not production serving.
	Debug bool

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
// standing where I-Cilk's IO daemon stands — a reader observes each
// request's arrival and hands it straight to the scheduler as a handler
// task — while all request handling, including the response write
// whenever the socket takes it without blocking, runs as prioritized
// icilk tasks. Only a write the kernel will not take at once is handed
// to a goroutine (see send). A reader parked in Go's netpoller is
// woken by the workers themselves when they are too busy for Go to poll
// (see kicker), so readiness reaches the scheduler at a task boundary.
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
	// writers counts the fallback writer goroutines (see send); Shutdown
	// waits for them once no task is left to start one.
	writers sync.WaitGroup

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

	// kicks lets busy workers wake the readers (nil when it cannot, or
	// off Linux).
	kicks *kicker

	// Overload-protection state: connCount tracks open accepted
	// connections against cfg.MaxConns (refused counts the rejects);
	// inflight counts admitted-but-unresponded requests (the drain
	// phase's completion condition). draining flips during Shutdown's
	// first phase: admissions then shed everything so keep-alive clients
	// cannot hold the drain open.
	connCount atomic.Int64
	refused   atomic.Int64
	inflight  atomic.Int64
	draining  atomic.Bool

	// Scheduler-visible shared state, each store in the cheapest
	// representation of its access pattern ("State access patterns in
	// embarrassingly parallel computations"). classes holds every
	// admission class's counters — accumulators, so worker-striped
	// StripedCounters bumped without a lock. sess tracks client sessions
	// (keyed by the sid query parameter, falling back to the remote host)
	// and rcache caches whole response bodies for idempotent endpoints —
	// key-addressed caches, so ShardedMaps, with the cache's hit count in
	// a StripedCounter. Every ceiling derives from the admission table
	// (derivedCeiling: the max priority among each store's declared
	// accessor classes — PrioInteractive for all of them today,
	// recomputed automatically if a class moves). All of it surfaces in
	// /stats, summed across stripes and shards at read time.
	classes    map[string]*classStats
	sess       *icilk.ShardedMap[*session]
	rcache     *icilk.ShardedMap[string]
	rcacheHits *icilk.StripedCounter
}

// classStats is one admission class's counters. inflight counts its
// admitted-but-unresponded requests, read by the shedding watermark
// check; admitted, shed and timeouts tally admissions, refused
// admissions and missed deadlines for /stats.
type classStats struct {
	inflight                 atomic.Int64
	admitted, shed, timeouts *icilk.StripedCounter
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
// session) cannot grow the maps without bound. A shard's share is at
// least 4096/32 — ShardedMap caps its shard count at 32.
const maxSessions = 4096

// sconn is one accepted connection: its reader goroutine parses each
// request and dispatches its handler task, and its reorder buffer puts
// the responses back in request order.
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

	// reading is set while the reader is in (or entering) a socket
	// Read; the kicker clears it when it kicks that Read.
	reading atomic.Bool

	// The reorder buffer. HTTP/1.1 sends pipelined responses in request
	// order, but a connection's handlers run concurrently at their own
	// levels and finish in any order. The reader numbers the requests
	// from 0; response next is the one the socket expects, and whoever
	// delivers it owns the write side until it has written it and every
	// consecutive response already waiting in pending (see deliver). So
	// at most one write is in flight, no task ever waits for another
	// request's response, and seq − next counts the dispatched requests
	// whose responses are still owed. closed ends all writing: the
	// connection was dropped, or the reader sent its parting 400, which
	// it does only when nothing is owed — so it never queues behind a
	// stalled write or lands inside a response.
	mu      sync.Mutex
	next    uint64
	pending map[uint64]reply // allocated when a response first finishes early
	closed  bool
}

// reply is one encoded response, with the class whose inflight counts
// it retires (nil for a shed response, which never counted).
type reply struct {
	data []byte
	cs   *classStats
}

// Start listens on cfg.Addr and begins serving.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	validateAdmission()
	rt := icilk.New(icilk.Config{
		Workers:    cfg.Workers,
		Levels:     Levels,
		Prioritize: !cfg.Baseline,
		Debug:      cfg.Debug,
	})
	// Every class the router can admit gets its counters up front; the
	// map is immutable after Start, so every request reads it without a
	// lock.
	classes := map[string]*classStats{}
	addClass := func(cl string) {
		classes[cl] = &classStats{
			admitted: icilk.NewStripedCounter(rt, derivedCeiling("serve.admitted")),
			shed:     icilk.NewStripedCounter(rt, derivedCeiling("serve.shed")),
			timeouts: icilk.NewStripedCounter(rt, derivedCeiling("serve.timeouts")),
		}
	}
	for cl := range classPriorities {
		addClass(cl)
	}
	for _, jt := range []workload.JobType{workload.JobMatMul, workload.JobFib, workload.JobSort, workload.JobSW} {
		addClass("jserver-" + jt.String())
	}
	sessCeil, rcacheCeil := derivedCeiling("serve.sessions"), derivedCeiling("serve.rcache")
	s := &Server{
		cfg:        cfg,
		rt:         rt,
		ln:         ln,
		jobs:       jserver.NewJobSet(cfg.Jobs),
		proxy:      proxy.NewService(rt, simio.Latency{Base: 3 * time.Millisecond, Jitter: 5 * time.Millisecond}, cfg.Seed),
		email:      email.NewServer(rt, email.Config{Users: cfg.Users, Seed: cfg.Seed}),
		start:      time.Now(),
		conns:      map[*sconn]struct{}{},
		classes:    classes,
		sess:       icilk.NewShardedMap[*session](rt, sessCeil, sessCeil, "serve.sessions"),
		rcache:     icilk.NewShardedMap[string](rt, rcacheCeil, rcacheCeil, "serve.rcache"),
		rcacheHits: icilk.NewStripedCounter(rt, rcacheCeil),
		kicks:      newKicker(),
	}
	if s.kicks != nil {
		rt.SetBoundaryPoll(s.kicks.poll)
	}
	s.connWG.Add(1)
	go s.acceptor()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Runtime returns the underlying icilk runtime (diagnostics, tests).
func (s *Server) Runtime() *icilk.Runtime { return s.rt }

// acceptor accepts connections and hands each one a reader goroutine.
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
		cn := &sconn{c: c}
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
		// Registered under connMu, so no dropConn can run before it.
		s.kicks.add(cn)
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.reader(cn)
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

// reader is cn's poller: it blocks in the netpoller for request bytes
// and dispatches each request the moment it is parsed — the
// socket-readiness edge that drives the runtime, with nothing between
// the completed read and the handler's spawn. Go wakes it when a P is
// idle; on a server whose workers keep every P busy, a worker wakes it
// at a task boundary instead (kicker), and it runs on that worker's P.
func (s *Server) reader(cn *sconn) {
	defer s.connWG.Done()
	sr := &sockReader{cn: cn}
	lim := &headLimiter{r: sr}
	br := bufio.NewReader(lim)
	tp := textproto.NewReader(br)
	idle, header := s.cfg.IdleTimeout, s.cfg.ReadHeaderTimeout
	for seq := uint64(0); ; seq++ {
		req, err := s.readOne(sr, tp, br, lim, idle, header)
		if err != nil {
			// A malformed request gets its answer before the drop, unless
			// an earlier response is still owed; the stream past it is
			// unframed, so the connection cannot live on either way. IO
			// errors (EOF, deadline, reset) get none.
			var re *reqError
			if errors.As(err, &re) {
				cn.mu.Lock()
				quiet := !cn.closed && cn.next == seq
				cn.closed = true
				cn.mu.Unlock()
				if quiet {
					cn.writeBestEffort(httpResponse(re.status, "error", classPrio("error"), "", re.msg+"\n"))
				}
			}
			s.dropConn(cn)
			return
		}
		cn.mu.Lock()
		owed := seq - cn.next
		cn.mu.Unlock()
		if owed >= maxPipelined {
			// Pipelining far beyond anything a real client does: treat
			// it as abuse rather than spawning unbounded work.
			s.dropConn(cn)
			return
		}
		s.dispatch(cn, seq, req)
	}
}

// maxPipelined caps a connection's dispatched requests whose responses
// are still owed.
const maxPipelined = 256

// readOne reads one request under the anti-slowloris discipline: wait up
// to idle for the first byte, then give the whole head (and any declared
// body) at most header to finish and maxHeadBytes to fit in. A client
// that trickles one byte per second can hold a connection for at most
// idle + header, not forever.
func (s *Server) readOne(sr *sockReader, tp *textproto.Reader, br *bufio.Reader, lim *headLimiter, idle, header time.Duration) (*request, error) {
	lim.budget = maxHeadBytes
	if idle > 0 {
		sr.setDeadline(time.Now().Add(idle))
		if _, err := br.Peek(1); err != nil {
			return nil, err
		}
	}
	if header > 0 {
		sr.setDeadline(time.Now().Add(header))
	} else if idle > 0 {
		sr.setDeadline(time.Time{})
	}
	return parseRequest(tp, br, lim)
}

// sockReader is the reader's view of its socket, and still the only
// consumer of its bytes. It owns the reader's read deadline, so it can
// tell the kicker's past deadline from the reader's own: any deadline
// error before that deadline is a kick, which it undoes by restoring the
// deadline and reading again.
type sockReader struct {
	cn       *sconn
	deadline time.Time // zero: none
}

func (sr *sockReader) setDeadline(t time.Time) {
	sr.deadline = t
	sr.cn.c.SetReadDeadline(t)
}

func (sr *sockReader) Read(p []byte) (int, error) {
	for {
		sr.cn.reading.Store(true)
		n, err := sr.cn.c.Read(p)
		sr.cn.reading.Store(false)
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) ||
			(!sr.deadline.IsZero() && !time.Now().Before(sr.deadline)) {
			return n, err
		}
		sr.cn.c.SetReadDeadline(sr.deadline)
		if n > 0 {
			return n, nil
		}
	}
}

// dropConn tears down one connection. It is idempotent — reader-error
// teardown, write failure, and Shutdown's force-close may all call it —
// and only the first Close's error is recorded on the sconn. The
// responses waiting in the reorder buffer retire unwritten.
func (s *Server) dropConn(cn *sconn) {
	cn.closeOnce.Do(func() {
		s.kicks.remove(cn)
		cn.closeErr = cn.c.Close()
		cn.mu.Lock()
		cn.closed = true
		pending := cn.pending
		cn.pending = nil
		cn.mu.Unlock()
		for _, r := range pending {
			s.retire(r, false)
		}
		s.connMu.Lock()
		delete(s.conns, cn)
		s.connMu.Unlock()
		s.connCount.Add(-1)
	})
}

// deliver hands over the encoded response to request seq, and its
// caller then returns. It never waits: the response is sent now if it
// is the one the socket expects next, and otherwise left in the reorder
// buffer for whoever sends its predecessor.
//
// Invariant: each dispatched request is delivered exactly once — by its
// shed responder, by its handler task, or, for a deadlined request, by
// whichever of its handler and its deadline's responder claims it first
// (see armDeadline); the loser delivers nothing.
//
// Invariant: each request retires exactly once — its inflight count,
// its class's inflight count, and its place in seq − next — when its
// bytes are written, or when the connection is dropped: dropConn
// retires what the buffer holds then, and a response delivered after
// the drop retires here, unwritten.
func (s *Server) deliver(cn *sconn, seq uint64, r reply) {
	cn.mu.Lock()
	switch {
	case cn.closed:
		cn.mu.Unlock()
		s.retire(r, false)
	case seq != cn.next:
		if cn.pending == nil {
			cn.pending = map[uint64]reply{}
		}
		cn.pending[seq] = r
		cn.mu.Unlock()
	default:
		cn.mu.Unlock()
		s.send(cn, r)
	}
}

// send writes r, the response the socket expects next, and then every
// consecutive response ready behind it; the caller owns the write side.
// Each response is first offered to the socket in one non-blocking
// write(2) through the connection's RawConn, which on a keep-alive
// connection with room in its send buffer — every small response —
// takes all of it, so the task carries on without a park, a goroutine
// or a wake. What the kernel will not take at once (a response larger
// than the send buffer, a client that is not reading) or a connection
// that is not a raw socket (the -chaos wrapper) goes to a writer
// goroutine, which takes the write side over; a worker never blocks in
// the netpoller either way.
func (s *Server) send(cn *sconn, r reply) {
	for more := true; more; {
		n, err := cn.writeNow(r.data)
		if err == nil && n < len(r.data) {
			s.writesFallback.Add(1)
			s.writers.Add(1)
			go s.writeRest(cn, r, n)
			return
		}
		if err == nil {
			s.writesDirect.Add(1)
		}
		r, more = s.wrote(cn, r, err == nil)
	}
}

// wrote retires r once its write has ended (ok: every byte is on the
// socket; otherwise the connection is dropped) and passes the write
// side on: back to the caller with the next response if it is ready,
// else to whoever delivers that response.
func (s *Server) wrote(cn *sconn, r reply, ok bool) (reply, bool) {
	if !ok {
		s.dropConn(cn)
	}
	s.retire(r, ok)
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.next++
	r, found := cn.pending[cn.next]
	if !found || cn.closed {
		return reply{}, false
	}
	delete(cn.pending, cn.next)
	return r, true
}

// retire takes one answered request off the drain's count; written
// reports whether its response reached the socket.
func (s *Server) retire(r reply, written bool) {
	if !written {
		s.writeErrs.Add(1)
	}
	if r.cs != nil {
		r.cs.inflight.Add(-1)
		s.inflight.Add(-1)
	}
}

// writeBestEffort answers a connection that is about to be dropped (a
// malformed request). The caller closed the write side while nothing
// was owed, so no response write is in flight or will start: a raw
// socket gets whatever one non-blocking write takes, a wrapped
// connection a bounded blocking write.
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
// holding its writer goroutine (and every response behind it) forever.
const writeStall = 30 * time.Second

// writeRest is the fallback writer: it blocks (in the netpoller, on its
// own goroutine) until r's bytes from n on are on the socket, then sends
// the responses that became ready meanwhile. A failed or stalled write
// means the byte stream is dead or desynced, so the connection is
// dropped, which unblocks its reader.
func (s *Server) writeRest(cn *sconn, r reply, n int) {
	defer s.writers.Done()
	ok := true
	// Chaos hooks perturb the write's completion: a delay holds the
	// responses behind it past the bytes landing, and an injected
	// failure reports the write dead (dropping the connection) exactly
	// as a failed socket write would.
	if fl := s.cfg.Faults; fl != nil {
		if d := fl.CompleteDelay(); d > 0 {
			time.Sleep(d)
		}
		ok = !fl.CompleteFail()
	}
	if ok {
		cn.c.SetWriteDeadline(time.Now().Add(writeStall))
		_, err := cn.c.Write(r.data[n:])
		// Clear the deadline: left armed it would expire during a quiet
		// spell and fail the connection's next direct write.
		cn.c.SetWriteDeadline(time.Time{})
		ok = err == nil
	}
	if r, more := s.wrote(cn, r, ok); more {
		s.send(cn, r)
	}
}

// trackSession updates the session store for one admitted request. The
// session key is the sid query parameter when the client sends one, the
// remote host otherwise (host only — the ephemeral port would make
// every connection a fresh session). At the shard's share of
// maxSessions, inserting evicts the shard's least-recently-seen session.
func (s *Server) trackSession(c *icilk.Ctx, cn *sconn, req *request) {
	key := req.query.Get("sid")
	if key == "" {
		key = cn.c.RemoteAddr().String()
		if host, _, err := net.SplitHostPort(key); err == nil {
			key = host
		}
	}
	capPer := maxSessions / s.sess.Shards()
	s.sess.Update(c, key, func(m map[string]*session) {
		sess := m[key]
		if sess == nil {
			if len(m) >= capPer {
				var oldKey string
				var oldSeen time.Time
				for k, v := range m {
					if oldKey == "" || v.lastSeen.Before(oldSeen) {
						oldKey, oldSeen = k, v.lastSeen
					}
				}
				delete(m, oldKey)
			}
			sess = &session{}
			m[key] = sess
		}
		sess.requests++
		sess.lastPath = req.path
		sess.lastSeen = time.Now()
	})
}

// cachedResponse consults the shared response cache — a read lock on
// the key's shard, so concurrent handlers replaying cached bodies never
// serialize, even across different keys.
func (s *Server) cachedResponse(c *icilk.Ctx, key string) (string, bool) {
	body, ok := s.rcache.Get(c, key)
	if ok {
		s.rcacheHits.Add(c, 1)
	}
	return body, ok
}

// storeResponse fills the shared response cache; on overflow the key's
// shard (not the whole cache) is dropped. Only deterministic,
// side-effect-free response bodies belong here.
func (s *Server) storeResponse(c *icilk.Ctx, key, body string) {
	capPer := maxResponseCache / s.rcache.Shards()
	s.rcache.Update(c, key, func(m map[string]string) {
		if len(m) >= capPer {
			clear(m)
		}
		m[key] = body
	})
}

// Shutdown stops the server in two phases. Phase one (drain): close the
// listener, flip draining — every new admission now sheds with a 503 —
// and give already-admitted requests up to DrainTimeout to get their
// responses onto their sockets. Phase two (force): close every
// remaining connection (idempotent against racing reader teardowns),
// then run the established wind-down — readers exit, the runtime
// drains, and the fallback writers, whose sockets are closed, finish. A
// clean drain means no in-flight request is ever cut off mid-response;
// the timeout bounds how long a stuck client can hold the process.
//
// No deadline entry is armed once WaitIdle returns nil: an armed entry
// counts as outstanding until it fires or its handler cancels it, and a
// firing entry spawns its responder before it stops counting. After
// rt.Shutdown a spawn panics, so a late firing there must be
// impossible; a drain that times out therefore leaves the runtime
// running, since a stuck handler's entry may still fire.
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
		s.dropConn(cn) // readers unblock with an error and exit
	}
	s.connWG.Wait()
	if err := s.rt.WaitIdle(30 * time.Second); err != nil {
		return fmt.Errorf("serve: shutdown drain: %w", err)
	}
	s.writers.Wait()
	s.rt.Shutdown()
	s.rt.SetBoundaryPoll(nil)
	s.kicks.close()
	return nil
}
