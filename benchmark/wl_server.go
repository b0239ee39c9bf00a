package main

import (
	"sync"
	"time"
)

// runData is what one measured stretch of a workload produced. fg is
// the foreground stream, whose latency is reported; bulk is the stream
// whose completion rate is reported, nil in single-stream workloads,
// where the foreground stream is also the bulk stream.
type runData struct {
	fg, bulk []sample
	late     lateness
	// counts are state_rw's lock slow-path events over the stretch, for
	// the per-operation layer metrics.
	counts map[string]float64
	// err is the first operation failure or broken invariant, if any.
	err error
}

func (rd runData) bulkStream() []sample {
	if rd.bulk == nil {
		return rd.fg
	}
	return rd.bulk
}

// instance is a set-up workload: the program under test is running,
// ready and warmed up.
type instance interface {
	// run drives the workload for d from start. tr is nil for the
	// untraced run.
	run(start time.Time, d time.Duration, tr *tracer) runData
	close() error
}

// Warm-up sizes are fixed counts (not durations) so that setup_s times
// the same work on every run, and large enough that it takes a second.
const (
	pingWarmupPerConn = 200
	mixWarmupPings    = 1000
	mixWarmupJobs     = 40
	mixInterval       = 5 * time.Millisecond // interactive stream: 200 requests/s
)

// pingThink is how long each ping_closed connection waits between an
// answer and its next request. It is what makes the workload repeat.
// Sent back to back, a request reaches the server 30-60 us after the last
// answer, which is about as long as the server process stays awake. A
// request that beats that is answered in 0.15 ms; one that does not waits
// for the 50 us KickSoon timer, which a sleeping Go process fires after
// 1 ms (epoll_wait's resolution) — ROADMAP item 1's millisecond floor.
// Which of the two most requests get flips with the box's speed: the same
// code read p50 0.14 or 1.25 ms and 4.1k or 1.9k requests/s for minutes
// at a time, and always the worse after a CPU-heavy run (README.md has
// the measurements). With 4 ms between requests the server is asleep
// every time, every request pays the wake-up path the workload exists to
// measure, and the quartiles of ten runs are 1-2% apart.
const pingThink = 4 * time.Millisecond

var (
	batchSpecs       = []reqSpec{reqSort, reqSW}
	interactiveSpecs = []reqSpec{reqPing, reqMatmul}
	pingSpecs        = []reqSpec{reqPing}
)

// serverInst is a running icilk-serve plus which traffic to send it.
type serverInst struct {
	p   *srvProc
	mix bool
}

// setupServer launches a fresh server and warms it up with the
// workload's own request kinds.
func setupServer(bin string, mix bool) (instance, float64, error) {
	p, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	s := &serverInst{p: p, mix: mix}
	if err := s.warmup(); err != nil {
		p.stop()
		return nil, 0, err
	}
	return s, p.readyMB, nil
}

func (s *serverInst) close() error { return s.p.stop() }

// dialPair dials the two connections every server workload uses.
func dialPair(addr string, deadline time.Time) (a, b *httpConn, err error) {
	if a, err = dial(addr, deadline); err != nil {
		return nil, nil, err
	}
	if b, err = dial(addr, deadline); err != nil {
		a.close()
		return nil, nil, err
	}
	return a, b, nil
}

// loopBoth runs a fixed count of closed-loop requests on each of two
// fresh connections at once: nA of specsA on one, nB pings on the other,
// each waiting think before every request.
func loopBoth(addr string, specsA []reqSpec, think time.Duration, nA, nB int) error {
	a, b, err := dialPair(addr, time.Now().Add(ioDeadlineSlack))
	if err != nil {
		return err
	}
	defer a.close()
	defer b.close()
	errA := make(chan error, 1)
	go func() {
		_, err := closedLoop(a, specsA, think, loopLimit{n: nA}, time.Now(), nil, nil)
		errA <- err
	}()
	_, errB := closedLoop(b, pingSpecs, think, loopLimit{n: nB}, time.Now(), nil, nil)
	return firstError(<-errA, errB)
}

func (s *serverInst) warmup() error {
	if s.mix {
		return loopBoth(s.p.addr, batchSpecs, 0, mixWarmupJobs, mixWarmupPings)
	}
	return loopBoth(s.p.addr, pingSpecs, pingThink, pingWarmupPerConn, pingWarmupPerConn)
}

func (s *serverInst) run(start time.Time, d time.Duration, tr *tracer) runData {
	end := loopLimit{end: start.Add(d)}
	a, b, err := dialPair(s.p.addr, end.end.Add(ioDeadlineSlack))
	if err != nil {
		return runData{err: err}
	}
	defer a.close()
	defer b.close()
	ta, tb := tr.buf(), tr.buf()

	var (
		wg         sync.WaitGroup
		aOut, bOut []sample
		aErr, bErr error
		late       lateness
	)
	wg.Add(1)
	if s.mix {
		// Connection A: batch jobs, one at a time — the bulk stream.
		// Connection B: interactive requests on a fixed schedule — the
		// foreground stream.
		go func() {
			defer wg.Done()
			aOut, aErr = closedLoop(a, batchSpecs, 0, end, start, ta, make([]sample, 0, 1<<12))
		}()
		bOut, late, bErr = paced(b, interactiveSpecs, mixInterval, start, d, tb, make([]sample, 0, arrivals(d, mixInterval)))
		wg.Wait()
		return runData{fg: bOut, bulk: aOut, late: late, err: firstError(aErr, bErr)}
	}
	// Two connections sending only /ping, one request in flight on each:
	// one stream, which is both foreground and bulk.
	perConn := int(d/pingThink) + 1024
	go func() {
		defer wg.Done()
		aOut, aErr = closedLoop(a, pingSpecs, pingThink, end, start, ta, make([]sample, 0, perConn))
	}()
	bOut, bErr = closedLoop(b, pingSpecs, pingThink, end, start, tb, make([]sample, 0, perConn))
	wg.Wait()
	return runData{fg: append(aOut, bOut...), err: firstError(aErr, bErr)}
}

func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
