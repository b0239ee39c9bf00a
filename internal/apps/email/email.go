// Package email implements the paper's second case study (Section 5.1): a
// multi-user shared email client. Users sort, send, and print messages; a
// background pass compresses mailboxes with Huffman codes. The print and
// compress components coordinate through per-email slots holding future
// handles, exchanged with atomic swaps and ftouched before proceeding —
// the paper's showcase interaction of thread handles with mutable state.
//
// Priority levels, highest to lowest (six, as in the paper):
//
//	PrioEvent    — the user-request event loop
//	PrioSend     — sending mail
//	PrioSort     — sorting mailboxes
//	PrioCompress — compressing and printing (they touch each other, so
//	               they share a level; λ4i's Touch rule demands it)
//	PrioCheck    — the periodic compression trigger
//	PrioMain     — startup/shutdown
package email

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/huffman"
	"repro/internal/icilk"
	"repro/internal/simio"
	"repro/internal/stats"
)

// Priority levels (indices into a 6-level runtime).
const (
	PrioMain     icilk.Priority = 0
	PrioCheck    icilk.Priority = 1
	PrioCompress icilk.Priority = 2
	PrioSort     icilk.Priority = 3
	PrioSend     icilk.Priority = 4
	PrioEvent    icilk.Priority = 5
)

// Levels is the number of priority levels the email client needs.
const Levels = 6

// Config parameterizes an email run.
type Config struct {
	Users          int
	EmailsPerUser  int
	Clients        int           // concurrent user sessions issuing requests
	Duration       time.Duration // request-generation window
	MeanThink      time.Duration // per-session think time
	SMTPLatency    simio.Latency
	PrinterLatency simio.Latency
	Seed           int64
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.EmailsPerUser <= 0 {
		c.EmailsPerUser = 32
	}
	if c.Clients <= 0 {
		c.Clients = 20
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.MeanThink <= 0 {
		c.MeanThink = 6 * time.Millisecond
	}
	if c.SMTPLatency.Base == 0 {
		c.SMTPLatency = simio.Latency{Base: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}
	}
	if c.PrinterLatency.Base == 0 {
		c.PrinterLatency = simio.Latency{Base: 4 * time.Millisecond, Jitter: 4 * time.Millisecond}
	}
	return c
}

// email is one message. The body is either plain text or a Huffman blob;
// mu guards body+compressed (the slot protocol serializes print against
// compress, but sends can append concurrently). The lock is a ceilinged
// icilk.Mutex at PrioCompress: print and compress are its highest
// lockers, and the check scan (PrioCheck, below them) holding it while a
// print blocks is exactly the shape priority inheritance repairs.
type email struct {
	mu         *icilk.Mutex
	id         int
	subject    string
	body       []byte
	compressed bool
}

// mailbox holds a user's messages and the per-email coordination slots.
// The mailbox lock's ceiling is PrioSend — sends (the highest accessor)
// append under it while sort, print/compress, and the check scan lock it
// from below, so a send blocking behind a mid-sort mailbox boosts the
// sorter to the send level.
//
// slots is the paper's coordination array: "within each user's inbox
// data structure is an array indexed using the email ID where any thread
// attempting to print or compress the email will store its own handle"
// (Section 5.1). A print or compress Swaps its own handle into the
// email's slot and touches the previous occupant before proceeding.
type mailbox struct {
	mu     *icilk.Mutex
	emails []*email
	order  []int // display order, updated by sort
	slots  []atomic.Pointer[icilk.Handle]
}

// newEmail builds one message with its ceilinged body lock.
func newEmail(rt *icilk.Runtime, id int, subject string, body []byte) *email {
	return &email{
		mu:      icilk.NewMutex(rt, PrioCompress, "email.body"),
		id:      id,
		subject: subject,
		body:    body,
	}
}

// Server is a running email service.
type Server struct {
	rt      *Runtime
	boxes   []*mailbox
	printer *simio.Device
	smtp    *simio.Device
}

// Runtime aliases icilk.Runtime for brevity in signatures.
type Runtime = icilk.Runtime

// Result summarizes a run.
type Result struct {
	Responses  []time.Duration
	Requests   int64
	Sends      int64
	Sorts      int64
	Prints     int64
	Compresses int64
	// Components holds the compute-time samples of the "event", "send",
	// "sort", "print", "compress" and "check" components (Figure 14):
	// one per task, from just before its spawn to the end of its body.
	// An event task's span is its request's response time, so "event"
	// holds Responses' samples.
	Components map[string]*stats.Recorder
}

// ResponseSummary summarizes the response-time sample.
func (r Result) ResponseSummary() stats.Summary { return stats.Summarize(r.Responses) }

func body(user, id int) []byte {
	return []byte(strings.Repeat(
		fmt.Sprintf("message %d for user %d lorem ipsum dolor sit amet ", id, user), 40))
}

// NewServer builds the email service core — per-user mailboxes seeded
// with messages, plus the simulated printer and SMTP devices. It is the
// reusable piece behind both the simulated harness (Run) and
// internal/serve's /email endpoint.
func NewServer(rt *icilk.Runtime, cfg Config) *Server {
	cfg = cfg.withDefaults()
	srv := &Server{
		rt:      rt,
		printer: simio.NewDevice("printer", cfg.PrinterLatency, cfg.Seed+1),
		smtp:    simio.NewDevice("smtp", cfg.SMTPLatency, cfg.Seed+2),
	}
	for u := 0; u < cfg.Users; u++ {
		box := &mailbox{
			mu:    icilk.NewMutex(rt, PrioSend, "email.mailbox"),
			slots: make([]atomic.Pointer[icilk.Handle], cfg.EmailsPerUser*4),
		}
		for e := 0; e < cfg.EmailsPerUser; e++ {
			box.emails = append(box.emails,
				newEmail(rt, e, fmt.Sprintf("subject-%03d-%02d", (e*37)%100, u), body(u, e)))
			box.order = append(box.order, e)
		}
		srv.boxes = append(srv.boxes, box)
	}
	return srv
}

// Users returns the number of mailboxes.
func (s *Server) Users() int { return len(s.boxes) }

// Send composes and ships a message for user. Call from a task at
// PrioSend (or the matching admission level of a smaller runtime).
func (s *Server) Send(c *icilk.Ctx, user int) {
	s.send(c, s.boxes[user%len(s.boxes)], user)
}

// Sort re-sorts user's mailbox display order. Call from a task at
// PrioSort.
func (s *Server) Sort(c *icilk.Ctx, user int) {
	s.sortBox(c, s.boxes[user%len(s.boxes)])
}

// Print prints email eid of user's mailbox, coordinating with any
// in-flight compression through the slot protocol. Spawn with GoSelf at
// PrioCompress and pass the task's own future as self.
func (s *Server) Print(c *icilk.Ctx, user, eid int, self icilk.Future[int]) {
	s.print(c, s.boxes[user%len(s.boxes)], eid, self)
}

// Run executes the email workload on the given runtime (≥ Levels levels).
func Run(rt *icilk.Runtime, cfg Config) Result {
	cfg = cfg.withDefaults()
	srv := NewServer(rt, cfg)

	var (
		responses  stats.Recorder
		requests   atomic.Int64
		sends      atomic.Int64
		sorts      atomic.Int64
		prints     atomic.Int64
		compresses atomic.Int64
	)
	components := map[string]*stats.Recorder{"event": &responses}
	for _, name := range []string{"send", "sort", "print", "compress", "check"} {
		components[name] = new(stats.Recorder)
	}

	icilk.Go(rt, nil, PrioMain, "main", func(c *icilk.Ctx) int { return 0 })

	// The check component: periodically fires compression for mailboxes
	// with enough uncompressed messages.
	stop := make(chan struct{})
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				spawned := time.Now()
				icilk.Go(rt, nil, PrioCheck, "check", func(c *icilk.Ctx) int {
					fired := 0
					for u := range srv.boxes {
						box := srv.boxes[u]
						box.mu.Lock(c)
						var pending []*email
						for _, e := range box.emails {
							e.mu.Lock(c)
							if !e.compressed {
								pending = append(pending, e)
							}
							e.mu.Unlock(c)
							if len(pending) >= 4 {
								break
							}
						}
						box.mu.Unlock(c)
						for _, e := range pending {
							srv.compress(c, box, e, &compresses, components["compress"])
							fired++
						}
						c.Checkpoint()
					}
					components["check"].Record(time.Since(spawned))
					return fired
				})
			}
		}
	}()

	// User sessions issuing requests.
	genStop := make(chan struct{})
	time.AfterFunc(cfg.Duration, func() { close(genStop) })
	var clientWG sync.WaitGroup
	for s := 0; s < cfg.Clients; s++ {
		clientWG.Add(1)
		go func(s int) {
			defer clientWG.Done()
			gen := simio.NewPoisson(cfg.MeanThink, cfg.Seed+int64(s)*104729)
			state := uint64(cfg.Seed+int64(s)) * 2654435761
			gen.Run(genStop, func(i int) {
				state = state*6364136223846793005 + 1442695040888963407
				r := state >> 33
				user := int(r % uint64(cfg.Users))
				kind := int((r >> 8) % 10)
				eid := int((r >> 16) % uint64(cfg.EmailsPerUser))
				arrival := time.Now()
				requests.Add(1)
				// The event loop dispatches every request at top priority.
				icilk.Go(rt, nil, PrioEvent, "event", func(c *icilk.Ctx) int {
					box := srv.boxes[user]
					spawned := time.Now()
					switch {
					case kind < 3: // send
						icilk.Go(rt, c, PrioSend, "send", func(c *icilk.Ctx) int {
							sends.Add(1)
							srv.send(c, box, user)
							components["send"].Record(time.Since(spawned))
							return 0
						})
					case kind < 6: // sort
						icilk.Go(rt, c, PrioSort, "sort", func(c *icilk.Ctx) int {
							sorts.Add(1)
							srv.sortBox(c, box)
							components["sort"].Record(time.Since(spawned))
							return 0
						})
					default: // print
						icilk.GoSelf(rt, c, PrioCompress, "print",
							func(c *icilk.Ctx, self icilk.Future[int]) int {
								prints.Add(1)
								srv.print(c, box, eid, self)
								components["print"].Record(time.Since(spawned))
								return 0
							})
					}
					responses.Record(time.Since(arrival))
					return 0
				})
			})
		}(s)
	}
	clientWG.Wait()
	stop <- struct{}{}
	checkWG.Wait()
	icilk.Go(rt, nil, PrioMain, "main", func(c *icilk.Ctx) int { return 0 })
	_ = rt.WaitIdle(15 * time.Second)

	return Result{
		Responses:  responses.Samples(),
		Requests:   requests.Load(),
		Sends:      sends.Load(),
		Sorts:      sorts.Load(),
		Prints:     prints.Load(),
		Compresses: compresses.Load(),
		Components: components,
	}
}

// send composes a new message and ships it over simulated SMTP.
func (s *Server) send(c *icilk.Ctx, box *mailbox, user int) {
	box.mu.Lock(c)
	id := len(box.emails)
	e := newEmail(s.rt, id, fmt.Sprintf("subject-%03d-re", id%100), body(user, id))
	box.emails = append(box.emails, e)
	box.order = append(box.order, id)
	box.mu.Unlock(c)
	// Ship a copy over the wire; the io-future hides the latency.
	simio.Write(s.rt, s.smtp, PrioSend).Touch(c)
}

// sortBox sorts the mailbox display order by subject — real computation.
func (s *Server) sortBox(c *icilk.Ctx, box *mailbox) {
	box.mu.Lock(c)
	subjects := make([]string, len(box.emails))
	for i, e := range box.emails {
		subjects[i] = e.subject
	}
	order := append([]int(nil), box.order...)
	box.mu.Unlock(c)
	sort.Slice(order, func(a, b int) bool {
		return subjects[order[a]%len(subjects)] < subjects[order[b]%len(subjects)]
	})
	c.Checkpoint()
	box.mu.Lock(c)
	if len(order) == len(box.order) {
		box.order = order
	}
	box.mu.Unlock(c)
}

// print uncompresses (if needed) and sends the email to the printer,
// coordinating with any in-flight compression through the slot protocol:
// install this print task's own handle, touch whatever was there before
// (the mirror image of the paper's compress pseudocode).
func (s *Server) print(c *icilk.Ctx, box *mailbox, eid int, self icilk.Future[int]) {
	box.mu.Lock(c)
	if eid >= len(box.emails) {
		box.mu.Unlock(c)
		return
	}
	e := box.emails[eid]
	box.mu.Unlock(c)

	if eid < len(box.slots) {
		if prev := box.slots[eid].Swap(self.Untyped()); prev != nil {
			prev.Touch(c) // wait for the in-flight compress/print
		}
	}
	e.mu.Lock(c)
	text := e.body
	if e.compressed {
		if dec, err := huffman.Decode(e.body); err == nil {
			text = dec
		}
	}
	_ = len(text)
	e.mu.Unlock(c)
	simio.Write(s.rt, s.printer, PrioCompress).Touch(c)
	c.Checkpoint()
}

// compress Huffman-compresses one email, coordinating with printing via
// the slot protocol — a direct transcription of the Section 5.1
// pseudocode: CAS this task's own handle into the slot, ftouch the
// previous occupant, then compress if still needed. The task counts
// its compression in count and its compute time in rec.
func (s *Server) compress(c *icilk.Ctx, box *mailbox, e *email, count *atomic.Int64, rec *stats.Recorder) {
	spawned := time.Now()
	icilk.GoSelf(s.rt, c, PrioCompress, "compress",
		func(c *icilk.Ctx, self icilk.Future[int]) int {
			if e.id < len(box.slots) {
				if prev := box.slots[e.id].Swap(self.Untyped()); prev != nil {
					prev.Touch(c) // wait for in-flight print
				}
			}
			e.mu.Lock(c)
			if !e.compressed {
				e.body = huffman.Encode(e.body)
				e.compressed = true
				count.Add(1)
			}
			e.mu.Unlock(c)
			c.Checkpoint()
			rec.Record(time.Since(spawned))
			return 0
		})
}
