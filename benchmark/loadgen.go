package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Generator-honesty limits: a paced stream whose generator ran later
// than this is reported as an invalid run, never as a slow (or fast)
// server. maxBehindShare bounds how far behind its schedule the stream
// may end, as a share of the schedule's length.
const (
	maxLateLimit    = 250 * time.Millisecond
	maxBehindShare  = 0.01
	ioDeadlineSlack = 30 * time.Second
)

// errInvalidRun marks a run whose load generator was starved: its
// numbers describe the generator, not the program under test.
var errInvalidRun = errors.New("invalid run: load generator fell behind its schedule")

// lateness is how late a paced generator ran: the worst delay between an
// arrival's due instant and the instant it was issued, and how far
// behind a schedule of length span the last arrival was issued.
type lateness struct {
	max    time.Duration
	behind time.Duration
	span   time.Duration
}

// behindShare is how far behind the stream ended, as a share of its
// schedule's length.
func (l lateness) behindShare() float64 {
	if l.span == 0 {
		return 0
	}
	return float64(l.behind) / float64(l.span)
}

// merge keeps the worse of two streams on each limit.
func (l *lateness) merge(o lateness) {
	l.max = max(l.max, o.max)
	if o.behindShare() >= l.behindShare() {
		l.behind, l.span = o.behind, o.span
	}
}

func (l lateness) check() error {
	if l.max > maxLateLimit {
		return fmt.Errorf("%w: worst lateness %v > %v", errInvalidRun, l.max, maxLateLimit)
	}
	if l.behindShare() > maxBehindShare {
		return fmt.Errorf("%w: ended %v behind a %v schedule", errInvalidRun, l.behind, l.span)
	}
	return nil
}

// pace calls fire(i, due) for every arrival i whose due instant
// start+i*interval falls before start+d, sleeping to each instant on an
// absolute schedule: a late arrival does not push the later ones back,
// and operations are timed from due, so a stall is charged to every
// arrival it delayed. It never drops an arrival.
func pace(start time.Time, d, interval time.Duration, fire func(i int, due time.Time)) lateness {
	l := lateness{span: d}
	for i, n := 0, arrivals(d, interval); i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		l.behind = max(time.Since(due), 0)
		l.max = max(l.max, l.behind)
		fire(i, due)
	}
	return l
}

// arrivals is how many arrivals a paced stream schedules in d.
func arrivals(d, interval time.Duration) int { return int((d + interval - 1) / interval) }

// reqSpec is one request the benchmark sends and what a correct answer
// to it looks like.
type reqSpec struct {
	path     string
	class    string
	prio     int
	body     string
	isPrefix bool // body is a prefix of the answer, not all of it
}

var (
	reqPing   = reqSpec{path: "/ping", class: "ping", prio: 3, body: "pong\n"}
	reqMatmul = reqSpec{path: "/jserver?job=matmul", class: "jserver-matmul", prio: 3, body: "matmul done in ", isPrefix: true}
	reqSort   = reqSpec{path: "/jserver?job=sort", class: "jserver-sort", prio: 1, body: "sort done in ", isPrefix: true}
	reqSW     = reqSpec{path: "/jserver?job=sw", class: "jserver-sw", prio: 0, body: "sw done in ", isPrefix: true}
)

// reply is one parsed HTTP/1.1 response.
type reply struct {
	status    int
	class     string
	prio      int
	body      []byte
	firstByte time.Time
}

func (s reqSpec) check(r reply) error {
	switch {
	case r.status < 200 || r.status > 299:
		return fmt.Errorf("%s: status %d", s.path, r.status)
	case r.class != s.class || r.prio != s.prio:
		return fmt.Errorf("%s: class %q priority %d, want %q %d", s.path, r.class, r.prio, s.class, s.prio)
	case s.isPrefix && !bytes.HasPrefix(r.body, []byte(s.body)),
		!s.isPrefix && string(r.body) != s.body:
		return fmt.Errorf("%s: body %q", s.path, r.body)
	}
	return nil
}

// httpConn is one keep-alive client connection, hand-rolled so the
// client costs little CPU (it shares the box with the server) and so
// the instant of the first response byte is visible.
type httpConn struct {
	c       net.Conn
	br      *bufio.Reader
	out     []byte
	body    []byte
	connect time.Duration
}

func dial(addr string, deadline time.Time) (*httpConn, error) {
	t0 := time.Now()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// One absolute deadline for the whole phase: a hung server becomes
	// an error, not a hung benchmark.
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 4096), connect: time.Since(t0)}, nil
}

func (h *httpConn) close() { h.c.Close() }

func (h *httpConn) send(path string) error {
	h.out = append(h.out[:0], "GET "...)
	h.out = append(h.out, path...)
	h.out = append(h.out, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	_, err := h.c.Write(h.out)
	return err
}

// recv reads one response. The body slice is reused by the next recv.
func (h *httpConn) recv() (reply, error) {
	var r reply
	if _, err := h.br.Peek(1); err != nil {
		return r, err
	}
	r.firstByte = time.Now()
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return r, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return r, fmt.Errorf("malformed status line %q", line)
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return r, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			return r, fmt.Errorf("malformed header %q", line)
		}
		switch string(name) {
		case "Content-Length":
			length, err = strconv.Atoi(string(val))
		case "X-Priority":
			r.prio, err = strconv.Atoi(string(val))
		case "X-Class":
			r.class = string(val)
		}
		if err != nil {
			return r, fmt.Errorf("malformed header %q", line)
		}
	}
	if length < 0 {
		return r, errors.New("response without Content-Length")
	}
	if cap(h.body) < length {
		h.body = make([]byte, length)
	}
	r.body = h.body[:length]
	_, err = readFull(h.br, r.body)
	return r, err
}

func readFull(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// opIDs numbers operations across the driver goroutines of one run.
var opIDs atomic.Int64

// traceRequest records one request's spans. The connect span rides on
// the first request of its connection.
func (h *httpConn) traceRequest(tb *spanBuf, op int64, due, writeStart, writeEnd, firstByte, done time.Time) {
	tb.add(op, "request", "", due, done)
	if h.connect > 0 {
		tb.add(op, "connect", "request", due.Add(-h.connect), due)
		h.connect = 0
	}
	tb.add(op, "write_request", "request", writeStart, writeEnd)
	tb.add(op, "wait_first_byte", "request", writeEnd, firstByte)
	tb.add(op, "read_body", "request", firstByte, done)
}

// loopLimit ends a closed loop: at an instant, after a request count,
// or at whichever comes first. The zero value of either means no limit
// of that kind.
type loopLimit struct {
	end time.Time
	n   int
}

// closedLoop keeps one request in flight on one connection, specs
// round-robin, from the calling goroutine: the next request is sent only
// when the previous one has been answered and checked, so a slow server
// receives less load. It stops at the first failure — the stream is out
// of step after it — and returns that failure with the failed sample
// recorded.
func closedLoop(h *httpConn, specs []reqSpec, think time.Duration, limit loopLimit, start time.Time, tb *spanBuf, out []sample) ([]sample, error) {
	for i := 0; limit.n == 0 || i < limit.n; i++ {
		if think > 0 {
			time.Sleep(think)
		}
		t0 := time.Now()
		if !limit.end.IsZero() && !t0.Before(limit.end) {
			break
		}
		spec := specs[i%len(specs)]
		err := h.send(spec.path)
		wrote := time.Now()
		var r reply
		if err == nil {
			r, err = h.recv()
		}
		done := time.Now()
		if err == nil {
			err = spec.check(r)
		}
		out = append(out, sample{due: t0.Sub(start), done: done.Sub(start), ok: err == nil})
		if err != nil {
			return out, err
		}
		if tb != nil {
			h.traceRequest(tb, opIDs.Add(1), t0, t0, wrote, r.firstByte, done)
		}
	}
	return out, nil
}

// sent is one paced request waiting for its answer.
type sent struct {
	spec       reqSpec
	due        time.Time
	writeStart time.Time
	writeEnd   time.Time
	err        error
}

// paced issues specs round-robin on one connection at a fixed rate
// without waiting for answers (HTTP/1.1 pipelining), so the arrival
// process is open-loop: a slow server faces the same arrivals as a fast
// one, and its queue shows as latency from the due instant. A sender
// goroutine keeps the schedule; the caller reads the answers in order.
// After the first failure the stream is out of step: every later arrival
// is recorded as failed, unsent and unread, at its due instant.
func paced(h *httpConn, specs []reqSpec, interval time.Duration, start time.Time, d time.Duration, tb *spanBuf, out []sample) ([]sample, lateness, error) {
	// Sized to the arrivals of the whole stretch, so the sender never
	// blocks on the reader: a stalled server must show as latency, not
	// as a generator that stopped generating.
	pending := make(chan sent, arrivals(d, interval))
	var late lateness
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pending)
		var sendErr error
		late = pace(start, d, interval, func(i int, due time.Time) {
			f := sent{spec: specs[i%len(specs)], due: due, err: sendErr}
			if sendErr == nil {
				f.writeStart = time.Now()
				sendErr = h.send(f.spec.path)
				f.writeEnd = time.Now()
				f.err = sendErr
			}
			pending <- f
		})
	}()
	var firstErr error
	for f := range pending {
		err := firstError(firstErr, f.err)
		var r reply
		if err == nil {
			r, err = h.recv()
		}
		done := time.Now()
		if err == nil {
			err = f.spec.check(r)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if tb != nil && err == nil {
			h.traceRequest(tb, opIDs.Add(1), f.due, f.writeStart, f.writeEnd, r.firstByte, done)
		}
		out = append(out, sample{due: f.due.Sub(start), done: done.Sub(start), ok: err == nil})
	}
	wg.Wait()
	return out, late, firstErr
}
