package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// The -diff mode: compare freshly produced BENCH_*.json files against
// the committed bench/ snapshots and fail on performance regressions —
// the perf-trajectory gate ROADMAP calls for. Rather than teaching the
// tool every experiment's schema, it walks both JSON trees in parallel
// and compares the numeric leaves whose key names mark them as
// lower-is-better timings:
//
//   - keys ending in "_ns" or "Ns" (nanosecond costs: fast-path ns/op,
//     per-program wall times),
//   - keys named exactly "p99"/"P99" (tail latencies, stats.Summary's
//     spelling included), and
//   - keys ending in "_ops_per_sec" or "OpsPerSec" (throughputs, guarded
//     in the opposite direction: higher is better), and
//   - keys ending in "_allocs_per_op" (allocation counts: lower is
//     better, and zero is a meaningful baseline — a zero-allocation
//     fast path that starts allocating again must trip the gate even
//     though any ratio against 0 is undefined, so these use an absolute
//     guard of +0.5 allocs on top of the ratio).
//
// Derived ratios and counters are deliberately not matched. A
// lower-is-better metric regresses when new > old * threshold; a
// throughput regresses when new * threshold < old. The threshold is
// generous by default because snapshots come from different machines
// (the envelope's gomaxprocs/git_sha say from where), and CI passes its
// own.

// regression is one flagged metric.
type regression struct {
	file, path string
	old, new   float64
}

func (r regression) String() string {
	if r.old == 0 {
		return fmt.Sprintf("%s: %s regressed: %.2f -> %.2f",
			r.file, r.path, r.old, r.new)
	}
	return fmt.Sprintf("%s: %s regressed %.4gx: %.0f -> %.0f",
		r.file, r.path, r.new/r.old, r.old, r.new)
}

// runDiff compares the snapshot pairs and returns the process exit
// code: 0 when no metric regressed, 1 otherwise, 2 on usage errors.
func runDiff(w io.Writer, oldDir, newDir string, threshold float64) int {
	if threshold <= 1 {
		fmt.Fprintf(w, "icilk-bench: -threshold must exceed 1, got %g\n", threshold)
		return 2
	}
	olds, err := filepath.Glob(filepath.Join(oldDir, "BENCH_*.json"))
	if err != nil || len(olds) == 0 {
		fmt.Fprintf(w, "icilk-bench: no BENCH_*.json snapshots in %s\n", oldDir)
		return 2
	}
	sort.Strings(olds)
	var regs []regression
	compared, skipped := 0, 0
	for _, oldPath := range olds {
		name := filepath.Base(oldPath)
		newPath := filepath.Join(newDir, name)
		newDoc, err := loadJSON(newPath)
		if os.IsNotExist(err) {
			fmt.Fprintf(w, "note: %s not present in %s; skipping\n", name, newDir)
			skipped++
			continue
		}
		if err != nil {
			fmt.Fprintf(w, "icilk-bench: %s: %v\n", newPath, err)
			return 2
		}
		oldDoc, err := loadJSON(oldPath)
		if err != nil {
			fmt.Fprintf(w, "icilk-bench: %s: %v\n", oldPath, err)
			return 2
		}
		n := 0
		diffValue(name, "", oldDoc, newDoc, threshold, &regs, &n)
		fmt.Fprintf(w, "%s: compared %d metrics against %s\n", name, n, oldDir)
		compared++
	}
	if compared == 0 {
		fmt.Fprintf(w, "icilk-bench: nothing to diff (all %d snapshots missing in %s)\n", skipped, newDir)
		return 2
	}
	if len(regs) > 0 {
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed beyond %.2gx:\n", len(regs), threshold)
		for _, r := range regs {
			fmt.Fprintf(w, "  %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(w, "OK: no regressions beyond %.2gx across %d snapshot(s)\n", threshold, compared)
	return 0
}

func loadJSON(path string) (any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return doc, nil
}

// timingKey reports whether a JSON object key names a lower-is-better
// nanosecond metric. Suffix matching is case-sensitive on the N so
// incidental "...ns" words ("connections", "runs") never match.
func timingKey(key string) bool {
	if key == "p99" || key == "P99" {
		return true
	}
	if len(key) > 3 && key[len(key)-3:] == "_ns" {
		return true
	}
	if len(key) > 2 && key[len(key)-2:] == "Ns" {
		return true
	}
	return false
}

// allocsKey reports whether a key names a lower-is-better allocation
// count (the io experiment's allocs/op leaves). Unlike timings, a zero
// old value is meaningful and must stay comparable.
func allocsKey(key string) bool {
	const suf = "_allocs_per_op"
	return len(key) > len(suf) && key[len(key)-len(suf):] == suf
}

// throughputKey reports whether a key names a higher-is-better
// throughput metric (the scaling sweeps' ops/sec leaves).
func throughputKey(key string) bool {
	if key == "ops_per_sec" {
		return true
	}
	if len(key) > 12 && key[len(key)-12:] == "_ops_per_sec" {
		return true
	}
	if len(key) > 9 && key[len(key)-9:] == "OpsPerSec" {
		return true
	}
	return false
}

// diffValue walks old and new in lockstep. Structure mismatches (a
// missing key, a shorter array, a changed type) end that branch
// silently: experiments evolve, and the gate's job is catching timing
// regressions on the metrics both snapshots still share.
func diffValue(file, path string, oldV, newV any, threshold float64, regs *[]regression, n *int) {
	switch ov := oldV.(type) {
	case map[string]any:
		nv, ok := newV.(map[string]any)
		if !ok {
			return
		}
		keys := make([]string, 0, len(ov))
		for k := range ov {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child, ok := nv[k]
			if !ok {
				continue
			}
			childPath := k
			if path != "" {
				childPath = path + "." + k
			}
			if allocsKey(k) {
				oldN, okO := ov[k].(float64)
				newN, okN := child.(float64)
				if okO && okN && oldN >= 0 && newN >= 0 {
					*n++
					// Ratio plus an absolute floor: 0 → 0.2 is noise,
					// 0 → 1 is a zero-allocation path allocating again.
					if newN > oldN*threshold && newN > oldN+0.5 {
						*regs = append(*regs, regression{file: file, path: childPath, old: oldN, new: newN})
					}
				}
				continue
			}
			if timingKey(k) || throughputKey(k) {
				oldN, okO := ov[k].(float64)
				newN, okN := child.(float64)
				if okO && okN && oldN > 0 && newN > 0 {
					*n++
					worse := newN > oldN*threshold
					if throughputKey(k) {
						worse = newN*threshold < oldN // higher is better
					}
					if worse {
						*regs = append(*regs, regression{file: file, path: childPath, old: oldN, new: newN})
					}
				}
				continue
			}
			diffValue(file, childPath, ov[k], child, threshold, regs, n)
		}
	case []any:
		nv, ok := newV.([]any)
		if !ok {
			return
		}
		// Arrays of labeled rows (the l4i experiment's per-program
		// points) match by label, so adding or removing a corpus entry
		// cannot misalign every later row against the snapshot.
		// Unlabeled arrays match by index.
		if byKey, key := labelIndex(nv); byKey != nil {
			for i, o := range ov {
				label, ok := elementLabel(o, key)
				if !ok {
					continue
				}
				match, ok := byKey[label]
				if !ok {
					continue // row gone from the new snapshot; skip
				}
				diffValue(file, fmt.Sprintf("%s[%s=%s]", path, key, label), ov[i], match, threshold, regs, n)
			}
			return
		}
		for i := 0; i < len(ov) && i < len(nv); i++ {
			diffValue(file, fmt.Sprintf("%s[%d]", path, i), ov[i], nv[i], threshold, regs, n)
		}
	}
}

// labelKeys are the row-identity fields experiments use, in preference
// order: string identities first (per-program, per-app rows, the
// overload experiment's per-class and per-load-point rows, the io
// sweep's wake modes), then the numeric sweep dimensions (the scaling
// curves' workers/shards points, which stay aligned even when a sweep
// gains intermediate points).
var labelKeys = []string{"program", "Program", "App", "Param", "class", "load", "mode", "workers", "shards"}

// labelIndex builds label → element for an array whose elements all
// carry the same label key; nil when the array has no such key.
func labelIndex(arr []any) (map[string]any, string) {
	for _, key := range labelKeys {
		idx := make(map[string]any, len(arr))
		ok := len(arr) > 0
		for _, el := range arr {
			label, has := elementLabel(el, key)
			if !has {
				ok = false
				break
			}
			idx[label] = el
		}
		if ok {
			return idx, key
		}
	}
	return nil, ""
}

func elementLabel(el any, key string) (string, bool) {
	obj, ok := el.(map[string]any)
	if !ok {
		return "", false
	}
	switch v := obj[key].(type) {
	case string:
		return v, v != ""
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64), true
	}
	return "", false
}
