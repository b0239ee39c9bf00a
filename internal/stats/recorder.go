package stats

import (
	"sync"
	"time"
)

// Recorder accumulates duration samples from concurrently running
// goroutines — the shared latency-collection helper the case-study
// harnesses (proxy, email) use for their response-time and
// per-component compute-time samples. The zero value is ready to use.
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Record appends one sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// Samples returns a copy of everything recorded so far.
func (r *Recorder) Samples() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.samples...)
}

// Summary summarizes the recorded sample.
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Summarize(r.samples)
}
