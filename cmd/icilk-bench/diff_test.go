package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

const snapBody = `{
  "experiment": "lock",
  "gomaxprocs": 1,
  "result": {
    "fast_path": { "mutex_lock_unlock_ns": 40.0, "ref_load_ns": 1.0 },
    "read_scaling": [ { "workers": 1, "rw_ops_per_sec": 500000 } ],
    "points": [ { "probe_latency": { "Count": 10, "P99": 1000000 } } ],
    "p99_ratio_off_over_on": 7.0,
    "connections": 90
  }
}`

func TestDiffIdenticalPasses(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", snapBody)
	writeSnap(t, new, "BENCH_lock.json", snapBody)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("identical snapshots should pass, got exit %d:\n%s", code, b.String())
	}
	// Exactly the two *_ns leaves, the one P99 leaf, and the one
	// *_ops_per_sec leaf count as metrics; ratios, counts, and
	// "connections" must not.
	if !strings.Contains(b.String(), "compared 4 metrics") {
		t.Errorf("expected 4 compared metrics, got:\n%s", b.String())
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", snapBody)
	regressed := strings.ReplaceAll(snapBody, `"mutex_lock_unlock_ns": 40.0`, `"mutex_lock_unlock_ns": 4000.0`)
	writeSnap(t, new, "BENCH_lock.json", regressed)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("100x regression should fail, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "mutex_lock_unlock_ns") {
		t.Errorf("regression report should name the metric:\n%s", b.String())
	}
}

func TestDiffFlagsP99Regression(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_state.json", snapBody)
	regressed := strings.ReplaceAll(snapBody, `"P99": 1000000`, `"P99": 90000000`)
	writeSnap(t, new, "BENCH_state.json", regressed)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("p99 regression should fail, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "P99") {
		t.Errorf("regression report should name P99:\n%s", b.String())
	}
}

// TestDiffFlagsThroughputDrop: *_ops_per_sec leaves are higher-is-better
// — a throughput collapse fails the gate even though the number got
// smaller, the direction the timing rule calls an improvement.
func TestDiffFlagsThroughputDrop(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", snapBody)
	dropped := strings.ReplaceAll(snapBody, `"rw_ops_per_sec": 500000`, `"rw_ops_per_sec": 100000`)
	writeSnap(t, new, "BENCH_lock.json", dropped)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("5x throughput drop should fail, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "rw_ops_per_sec") {
		t.Errorf("regression report should name the throughput metric:\n%s", b.String())
	}
	// The opposite direction — higher throughput — must pass.
	raised := strings.ReplaceAll(snapBody, `"rw_ops_per_sec": 500000`, `"rw_ops_per_sec": 5000000`)
	writeSnap(t, new, "BENCH_lock.json", raised)
	b.Reset()
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("throughput gain should pass, got exit %d:\n%s", code, b.String())
	}
}

func TestDiffImprovementAndRatioDropPass(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", snapBody)
	// Faster timings and a worse (smaller) higher-is-better ratio: the
	// gate only guards lower-is-better timings, so this passes.
	improved := strings.ReplaceAll(snapBody, `"mutex_lock_unlock_ns": 40.0`, `"mutex_lock_unlock_ns": 2.0`)
	improved = strings.ReplaceAll(improved, `"p99_ratio_off_over_on": 7.0`, `"p99_ratio_off_over_on": 0.1`)
	writeSnap(t, new, "BENCH_lock.json", improved)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("improvement should pass, got exit %d:\n%s", code, b.String())
	}
}

func TestDiffMissingNewSkips(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", snapBody)
	writeSnap(t, old, "BENCH_state.json", snapBody)
	writeSnap(t, new, "BENCH_lock.json", snapBody)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("missing new snapshot should be skipped, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "BENCH_state.json not present") {
		t.Errorf("skip should be noted:\n%s", b.String())
	}
}

func TestDiffUsageErrors(t *testing.T) {
	var b strings.Builder
	if code := runDiff(&b, t.TempDir(), t.TempDir(), 1.5); code != 2 {
		t.Errorf("empty old dir should exit 2, got %d", code)
	}
	old := t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", snapBody)
	if code := runDiff(&b, old, t.TempDir(), 1.5); code != 2 {
		t.Errorf("no comparable snapshots should exit 2, got %d", code)
	}
	if code := runDiff(&b, old, old, 0.5); code != 2 {
		t.Errorf("threshold <= 1 should exit 2, got %d", code)
	}
}

// TestDiffMatchesRowsByLabel: labeled arrays (per-program points) align
// by label, so inserting a new program cannot shift the comparison of
// the rows both snapshots share.
func TestDiffMatchesRowsByLabel(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_l4i.json", `{"result": [
	  {"program": "counter.l4i", "machine_ns": 100},
	  {"program": "fib.l4i", "machine_ns": 500}
	]}`)
	// A new program lands first in sorted order AND counter regresses:
	// index-wise matching would compare aaa against counter and mask
	// counter's regression against fib's larger baseline.
	writeSnap(t, new, "BENCH_l4i.json", `{"result": [
	  {"program": "aaa.l4i", "machine_ns": 400},
	  {"program": "counter.l4i", "machine_ns": 9000},
	  {"program": "fib.l4i", "machine_ns": 500}
	]}`)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("counter regression should be flagged, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "program=counter.l4i") {
		t.Errorf("report should attribute the regression to counter.l4i:\n%s", b.String())
	}
	if strings.Contains(b.String(), "aaa.l4i") {
		t.Errorf("the new program has no baseline and must not be flagged:\n%s", b.String())
	}
}

// TestDiffMatchesRowsByNumericLabel: sweep arrays carry numeric identity
// fields (workers, shards); rows align by that value, so a sweep gaining
// an intermediate point cannot shift the comparison of shared points.
func TestDiffMatchesRowsByNumericLabel(t *testing.T) {
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_lock.json", `{"result": {"read_scaling": [
	  {"workers": 1, "rw_ops_per_sec": 500000},
	  {"workers": 4, "rw_ops_per_sec": 2000000}
	]}}`)
	// A workers=2 point appears AND the workers=4 throughput collapses:
	// index-wise matching would compare the new workers=2 row against the
	// workers=4 baseline and miss the collapse.
	writeSnap(t, new, "BENCH_lock.json", `{"result": {"read_scaling": [
	  {"workers": 1, "rw_ops_per_sec": 500000},
	  {"workers": 2, "rw_ops_per_sec": 900000},
	  {"workers": 4, "rw_ops_per_sec": 200000}
	]}}`)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("workers=4 throughput collapse should be flagged, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "workers=4") {
		t.Errorf("report should attribute the regression to the workers=4 row:\n%s", b.String())
	}
	if strings.Contains(b.String(), "workers=2") {
		t.Errorf("the new sweep point has no baseline and must not be flagged:\n%s", b.String())
	}
}

// TestDiffAllocsPerOp: *_allocs_per_op leaves are lower-is-better with a
// zero-meaningful baseline — 0 → 1 must fail even though no ratio
// against 0 exists, while sub-half-alloc noise above any baseline must
// pass.
func TestDiffAllocsPerOp(t *testing.T) {
	const allocsBody = `{"result": {"fast_path": {
	  "done_touch_allocs_per_op": 0.0,
	  "spawn_touch_allocs_per_op": 3.0
	}}}`
	old, new := t.TempDir(), t.TempDir()
	writeSnap(t, old, "BENCH_io.json", allocsBody)

	// Identical snapshots compare both leaves and pass.
	writeSnap(t, new, "BENCH_io.json", allocsBody)
	var b strings.Builder
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("identical allocs should pass, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "compared 2 metrics") {
		t.Errorf("both allocs leaves should count as metrics:\n%s", b.String())
	}

	// A zero-allocation path allocating again: 0 → 1 fails despite the
	// undefined ratio.
	broken := strings.ReplaceAll(allocsBody,
		`"done_touch_allocs_per_op": 0.0`,
		`"done_touch_allocs_per_op": 1.0`)
	writeSnap(t, new, "BENCH_io.json", broken)
	b.Reset()
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("0 -> 1 allocs/op should fail, got exit %d:\n%s", code, b.String())
	}
	if !strings.Contains(b.String(), "done_touch_allocs_per_op") {
		t.Errorf("report should name the allocs metric:\n%s", b.String())
	}

	// Measurement noise under the absolute floor passes.
	noisy := strings.ReplaceAll(allocsBody,
		`"done_touch_allocs_per_op": 0.0`,
		`"done_touch_allocs_per_op": 0.3`)
	writeSnap(t, new, "BENCH_io.json", noisy)
	b.Reset()
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("0 -> 0.3 allocs/op is noise and should pass, got exit %d:\n%s", code, b.String())
	}

	// A real multiplicative regression on a nonzero baseline fails.
	tripled := strings.ReplaceAll(allocsBody,
		`"spawn_touch_allocs_per_op": 3.0`,
		`"spawn_touch_allocs_per_op": 9.0`)
	writeSnap(t, new, "BENCH_io.json", tripled)
	b.Reset()
	if code := runDiff(&b, old, new, 1.5); code != 1 {
		t.Fatalf("3 -> 9 allocs/op should fail, got exit %d:\n%s", code, b.String())
	}

	// An improvement passes.
	improved := strings.ReplaceAll(allocsBody,
		`"spawn_touch_allocs_per_op": 3.0`,
		`"spawn_touch_allocs_per_op": 0.0`)
	writeSnap(t, new, "BENCH_io.json", improved)
	b.Reset()
	if code := runDiff(&b, old, new, 1.5); code != 0 {
		t.Fatalf("allocs improvement should pass, got exit %d:\n%s", code, b.String())
	}
}
