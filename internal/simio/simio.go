package simio

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/icilk"
)

// Latency describes an I/O latency distribution.
type Latency struct {
	// Base is the minimum latency.
	Base time.Duration
	// Jitter adds a uniformly distributed extra in [0, Jitter).
	Jitter time.Duration
}

// Sample draws one latency.
func (l Latency) Sample(rng *rand.Rand) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(l.Jitter)))
	}
	return d
}

// Device is a simulated I/O device (a remote host, a disk, a printer)
// with its own latency distribution and a serialized random source.
type Device struct {
	mu   sync.Mutex
	rng  *rand.Rand
	lat  Latency
	name string
}

// NewDevice creates a device with the given latency and seed.
func NewDevice(name string, lat Latency, seed int64) *Device {
	return &Device{name: name, lat: lat, rng: rand.New(rand.NewSource(seed))}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Read issues a simulated read completing with data() after the sampled
// latency — the cilk_read of Section 4.1: the returned io_future hides
// the latency instead of blocking a worker. data runs on whichever
// worker fires the runtime's clock entry (see icilk.IO), so it must not
// block.
func Read[T any](rt *icilk.Runtime, d *Device, p icilk.Priority, data func() T) icilk.Future[T] {
	d.mu.Lock()
	lat := d.lat.Sample(d.rng)
	d.mu.Unlock()
	return icilk.IO(rt, p, lat, data)
}

// Write issues a simulated write, completing with true after the latency.
func Write(rt *icilk.Runtime, d *Device, p icilk.Priority) icilk.Future[bool] {
	d.mu.Lock()
	lat := d.lat.Sample(d.rng)
	d.mu.Unlock()
	return icilk.IO(rt, p, lat, func() bool { return true })
}

// Poisson generates events with exponentially distributed interarrival
// times — the paper's client simulation for jserver ("We simulate user
// inputs using a Poisson process").
type Poisson struct {
	rng  *rand.Rand
	mean time.Duration
}

// NewPoisson creates a generator with the given mean interarrival time.
func NewPoisson(mean time.Duration, seed int64) *Poisson {
	return &Poisson{rng: rand.New(rand.NewSource(seed)), mean: mean}
}

// Next draws the next interarrival delay.
func (p *Poisson) Next() time.Duration {
	u := p.rng.Float64()
	for u == 0 {
		u = p.rng.Float64()
	}
	return time.Duration(-math.Log(u) * float64(p.mean))
}

// Run delivers events through fn until stop closes, spacing them by
// exponential interarrivals; it returns the number of events delivered.
// Run blocks and is usually launched on its own goroutine (it models an
// external client, not a task).
func (p *Poisson) Run(stop <-chan struct{}, fn func(i int)) int {
	i := 0
	for {
		d := p.Next()
		select {
		case <-stop:
			return i
		case <-time.After(d):
		}
		fn(i)
		i++
	}
}

// Clock is a tiny helper for measuring request latencies in apps.
type Clock struct{ start time.Time }

// StartClock begins a measurement.
func StartClock() Clock { return Clock{start: time.Now()} }

// Elapsed reports the time since the clock started.
func (c Clock) Elapsed() time.Duration { return time.Since(c.start) }
