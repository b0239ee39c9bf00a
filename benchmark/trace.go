package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one operation share Op; Parent names
// the span that caused this one ("" for the operation's root span).
// Times are nanoseconds since the traced run began.
type span struct {
	Op      int64  `json:"op"`
	Name    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanBuf collects the spans of one driver goroutine. Each goroutine
// owns its buffer, so recording takes no lock; a nil buffer records
// nothing, which is how the untraced run shares the traced run's code.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func (b *spanBuf) add(op int64, name, parent string, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{Op: op, Name: name, Parent: parent,
		StartNs: start.Sub(b.epoch).Nanoseconds(), EndNs: end.Sub(b.epoch).Nanoseconds()})
}

// tracer hands out per-goroutine span buffers and writes them all as
// JSON lines when the traced run ends. A nil tracer hands out nil
// buffers.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new buffer. It is called while the run is being set up,
// before the driver goroutines start, so it needs no lock either.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, 1<<14)}
	t.bufs = append(t.bufs, b)
	return b
}

// write stores every span as dir/<workload>.jsonl, replacing the file of
// the previous traced run of that workload (a ping_closed trace is tens
// of megabytes), and returns the path and the span count.
func (t *tracer) write(dir, workload string) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, b := range t.bufs {
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return "", 0, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, n, f.Close()
}
