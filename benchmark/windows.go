package main

import (
	"math"
	"sort"
	"time"
)

// numWindows is how many equal windows a measurement is split into.
// Every end-to-end metric is computed per window and the run reports
// the median window, so a burst of interference from another tenant of
// the box spoils one window, not the run.
const numWindows = 6

// sample is one finished operation. Offsets are from the start of the
// measurement. Latency is done-due: for a paced stream due is the
// scheduled instant, not the instant the generator got round to it.
type sample struct {
	due  time.Duration
	done time.Duration
	ok   bool
}

// failedLatency stands in for the latency of a failed operation: it
// sorts after every real latency, so a failure worsens the percentiles
// (it "misses any latency limit") instead of vanishing from them.
const failedLatency = time.Duration(math.MaxInt64)

func (s sample) latency() time.Duration {
	if !s.ok {
		return failedLatency
	}
	return s.done - s.due
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// windowStats is one window's end-to-end numbers.
type windowStats struct {
	ThroughputPerS float64 `json:"throughput_per_s"`
	P50Ms          float64 `json:"latency_p50_ms"`
	P95Ms          float64 `json:"latency_p95_ms"`
	P99Ms          float64 `json:"latency_p99_ms"`
	Foreground     int     `json:"foreground_samples"`
	Bulk           int     `json:"bulk_completions"`
}

// windowize splits a measurement of n windows of length each into
// per-window statistics. A foreground sample belongs to the window it
// was due in (so every window holds the arrivals scheduled for it); a
// bulk completion belongs to the window it finished in, and one that
// finishes after the last window is not counted.
func windowize(fg, bulk []sample, n int, each time.Duration) []windowStats {
	lat := make([][]time.Duration, n)
	out := make([]windowStats, n)
	for _, s := range fg {
		if w := int(s.due / each); s.due >= 0 && w < n {
			lat[w] = append(lat[w], s.latency())
		}
	}
	for _, s := range bulk {
		if w := int(s.done / each); s.ok && s.done >= 0 && w < n {
			out[w].Bulk++
		}
	}
	for w := range out {
		l := lat[w]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out[w].Foreground = len(l)
		out[w].ThroughputPerS = float64(out[w].Bulk) / each.Seconds()
		out[w].P50Ms = ms(percentile(l, 0.50))
		out[w].P95Ms = ms(percentile(l, 0.95))
		out[w].P99Ms = ms(percentile(l, 0.99))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of vs (mean of the middle two for an even
// count); 0 for none. It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianWindow reduces per-window statistics to the run's value of one
// metric.
func medianWindow(ws []windowStats, pick func(windowStats) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = pick(w)
	}
	return median(vs)
}
