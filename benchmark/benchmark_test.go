package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/icilk"
)

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(ds, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestWindowize(t *testing.T) {
	const each = time.Second
	at := func(dueMs, latMs int, ok bool) sample {
		due := time.Duration(dueMs) * time.Millisecond
		return sample{due: due, done: due + time.Duration(latMs)*time.Millisecond, ok: ok}
	}
	fg := []sample{
		at(100, 1, true), at(200, 2, true), at(300, 3, true), at(900, 4, true), // window 0
		at(1100, 10, true), at(1500, 0, false), // window 1: one failure
		at(2999, 5, true), // due in window 2, done after the end
		at(3000, 5, true), // due after the last window: ignored
	}
	ws := windowize(fg, fg, 3, each)
	if got := []int{ws[0].Foreground, ws[1].Foreground, ws[2].Foreground}; !reflect.DeepEqual(got, []int{4, 2, 1}) {
		t.Errorf("foreground samples per window = %v, want [4 2 1]", got)
	}
	// Bulk counts successful completions by when they finished.
	if got := []int{ws[0].Bulk, ws[1].Bulk, ws[2].Bulk}; !reflect.DeepEqual(got, []int{4, 1, 0}) {
		t.Errorf("bulk completions per window = %v, want [4 1 0]", got)
	}
	if ws[0].ThroughputPerS != 4 || ws[0].P50Ms != 2 || ws[0].P95Ms != 4 {
		t.Errorf("window 0 = %+v, want throughput 4, p50 2 ms, p95 4 ms", ws[0])
	}
	// A failed operation sorts after every real latency.
	if ws[1].P50Ms != 10 || ws[1].P95Ms != ms(failedLatency) {
		t.Errorf("window 1 = %+v, want p50 10 ms and the failure as p95", ws[1])
	}
	if got := medianWindow(ws, func(w windowStats) float64 { return w.ThroughputPerS }); got != 1 {
		t.Errorf("median window throughput = %v, want 1", got)
	}
}

func TestPaceKeepsAnAbsoluteSchedule(t *testing.T) {
	start := time.Now()
	var dues []time.Duration
	l := pace(start, 10*time.Millisecond, time.Millisecond, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i == 2 {
			time.Sleep(3 * time.Millisecond) // a stall must not push later arrivals back
		}
	})
	if len(dues) != 10 {
		t.Fatalf("fired %d arrivals, want 10", len(dues))
	}
	for i, d := range dues {
		if want := time.Duration(i) * time.Millisecond; d != want {
			t.Errorf("arrival %d due at %v, want %v", i, d, want)
		}
	}
	if l.max < 2*time.Millisecond {
		t.Errorf("worst lateness %v, want at least the 2 ms the stall cost arrival 3", l.max)
	}
	if l.span != 10*time.Millisecond || l.behind > l.max {
		t.Errorf("lateness %+v, want a 10 ms span and an end no later than the worst", l)
	}
}

func TestLatenessCheck(t *testing.T) {
	ok := lateness{max: 10 * time.Millisecond, behind: 10 * time.Millisecond, span: time.Second}
	if err := ok.check(); err != nil {
		t.Errorf("1%% behind, 10 ms late: %v, want valid", err)
	}
	for _, l := range []lateness{
		{max: maxLateLimit + 1, span: time.Minute},
		{max: 11 * time.Millisecond, behind: 11 * time.Millisecond, span: time.Second},
	} {
		if err := l.check(); !errors.Is(err, errInvalidRun) {
			t.Errorf("%+v: %v, want an invalid run", l, err)
		}
	}
	// Merging keeps the worst of each limit.
	l := ok
	l.merge(lateness{max: time.Millisecond, behind: 50 * time.Millisecond, span: 2 * time.Second})
	if l.max != 10*time.Millisecond || l.behind != 50*time.Millisecond || l.span != 2*time.Second {
		t.Errorf("merged lateness %+v", l)
	}
}

// A server that dies mid-run must end the streams with a bounded number
// of failed samples, not leave the generators recording failures until
// the deadline.
func TestStreamsStopIssuingAfterAFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// Answer one ping on every connection, then hang up.
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 256)
			c.Read(buf)
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Class: ping\r\nX-Priority: 3\r\n\r\n%s", len(reqPing.body), reqPing.body)
			c.Close()
		}
	}()
	start := time.Now()
	deadline := start.Add(5 * time.Second)

	h, err := dial(ln.Addr().String(), deadline)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	out, err := closedLoop(h, pingSpecs, 0, loopLimit{end: deadline}, start, nil, nil)
	if err == nil || len(out) != 2 || !out[0].ok || out[1].ok {
		t.Errorf("closed loop: %d samples %+v, error %v; want one answered, one failed, and the failure", len(out), out, err)
	}

	h2, err := dial(ln.Addr().String(), deadline)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.close()
	const d, interval = 20 * time.Millisecond, time.Millisecond
	out, _, err = paced(h2, pingSpecs, interval, time.Now(), d, nil, nil)
	if err == nil || len(out) != arrivals(d, interval) || !out[0].ok || out[len(out)-1].ok {
		t.Errorf("paced: %d samples, error %v; want every one of the %d arrivals recorded, the first answered, the rest failed", len(out), err, arrivals(d, interval))
	}
	if time.Since(start) > time.Second {
		t.Errorf("the streams took %v to notice a dead server", time.Since(start))
	}
}

func TestReqSpecCheck(t *testing.T) {
	good := reply{status: 200, class: "ping", prio: 3, body: []byte("pong\n")}
	if err := reqPing.check(good); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for name, r := range map[string]reply{
		"status":   {status: 503, class: "ping", prio: 3, body: []byte("pong\n")},
		"class":    {status: 200, class: "stats", prio: 3, body: []byte("pong\n")},
		"priority": {status: 200, class: "ping", prio: 2, body: []byte("pong\n")},
		"body":     {status: 200, class: "ping", prio: 3, body: []byte("pong")},
	} {
		if err := reqPing.check(r); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
	job := reply{status: 200, class: "jserver-sort", prio: 1, body: []byte("sort done in 31.2ms\n")}
	if err := reqSort.check(job); err != nil {
		t.Errorf("correct job answer rejected: %v", err)
	}
}

// capturedStats is a /stats body taken from icilk-serve at 9906966.
const capturedStats = `uptime: 632ms
connections accepted: 5
connections open: 1 (refused 0)
requests: 5 (1 in flight)
write errors: 0
proxy cache: 0 hits, 0 misses
response cache: 0 entries, 0 hits
sessions: 1 tracked, 5 requests
admitted per class:
  jserver-matmul   1
  ping             1
  stats            1
scheduler: spawns=261 inline=249 promotions=10 parks=18 resumes=17 helps=243 steals=1 wakes=204 mutexparks=0 rwrparks=0 rwwparks=0 rwrevokes=3 inherits=0 transboosts=0 ceilings=0 poolhits=141 poolmisses=400 forwards=0 masterkicks=9
worker allocation (level per worker): [3 3]
`

func TestParseSchedLine(t *testing.T) {
	m, err := parseSchedLine(capturedStats)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"spawns": 261, "inline": 249, "promotions": 10, "parks": 18, "wakes": 204,
		"rwrevokes": 3, "poolhits": 141, "poolmisses": 400, "masterkicks": 9}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %d, want %d", k, m[k], v)
		}
	}
	if len(m) != 19 {
		t.Errorf("parsed %d counters, want 19", len(m))
	}
	if _, err := parseSchedLine("uptime: 1s\n"); err == nil {
		t.Error("a body without a scheduler line parsed")
	}
	if _, err := parseSchedLine("scheduler: spawns=many\n"); err == nil {
		t.Error("a non-numeric counter parsed")
	}
}

// The serve layer's per-request metrics name these counters; a renamed
// counter must fail here, not read as zero.
func TestSchedLineMatchesRuntime(t *testing.T) {
	m, err := parseSchedLine("scheduler: " + icilk.SchedStats{}.String() + "\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"spawns", "inline", "promotions", "parks", "wakes", "rwrevokes", "poolhits", "poolmisses"} {
		if _, ok := m[k]; !ok {
			t.Errorf("SchedStats.String has no %q counter", k)
		}
	}
}

func TestCorpusIsSeededAndMatchesTheSimulator(t *testing.T) {
	a, b := generateCorpus(), generateCorpus()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the corpus differ")
	}
	order := func(seed int64) []int {
		o := newCorpusOrder(seed, len(a))
		out := make([]int, 3*len(a))
		for i := range out {
			out[i] = o.next()
		}
		return out
	}
	if !reflect.DeepEqual(order(7), order(7)) {
		t.Error("same seed, different order")
	}
	if reflect.DeepEqual(order(7), order(8)) {
		t.Error("different seeds, same order")
	}
	// Every block of len(corpus) draws is a permutation.
	draws := order(7)
	for i := 0; i < len(draws); i += len(a) {
		seen := map[int]bool{}
		for _, j := range draws[i : i+len(a)] {
			seen[j] = true
		}
		if len(seen) != len(a) {
			t.Errorf("draws %d..%d are not a permutation", i, i+len(a))
		}
	}
	for _, p := range a {
		want, err := simulate(p.src)
		if err != nil {
			t.Errorf("%s: simulator: %v", p.name, err)
			continue
		}
		st, err := runL4i(p.src) // parses, typechecks and runs compiled
		if err != nil {
			t.Errorf("%s: %v", p.name, err)
			continue
		}
		if st.value != want {
			t.Errorf("%s: compiled value %s, simulator %s", p.name, st.value, want)
		}
	}
}

func TestTornWriteIsCaught(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: serverWorkers, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	table := newStateTable(rt)
	read := func() {
		rng := splitmix(1)
		if err := inTask(rt, prioReader, func(c *icilk.Ctx) {
			// Enough lookups to visit every entry many times over.
			for i := 0; i < 64; i++ {
				table.readSection(c, &rng)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := inTask(rt, prioWriter, func(c *icilk.Ctx) { table.write(c, 5, true) }); err != nil {
		t.Fatal(err)
	}
	read()
	if err := table.check(); err != nil {
		t.Fatalf("consistent table rejected: %v", err)
	}
	table.shards[2].slots[3].a++ // half a write, and no lock: a torn entry
	read()
	if err := table.check(); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn entry not caught: %v", err)
	}

	// The counter check: a write the counter missed.
	table2 := newStateTable(rt)
	table2.writes.Add(1)
	if err := table2.check(); err == nil || !strings.Contains(err.Error(), "counter") {
		t.Errorf("lost counter update not caught: %v", err)
	}
}

func TestAADiff(t *testing.T) {
	higher := metricDef{Name: "throughput_per_s", Better: "higher"}
	lower := metricDef{Name: "latency_p50_ms", Better: "lower"}
	if got := worsening(higher, 100, 90); got != 0.1 {
		t.Errorf("throughput 100 → 90 worsens by %v, want 0.1", got)
	}
	if got := worsening(lower, 10, 11); got != 0.1 {
		t.Errorf("latency 10 → 11 worsens by %v, want 0.1", got)
	}
	if got := worsening(lower, 10, 9); got >= 0 {
		t.Errorf("latency 10 → 9 worsens by %v, want an improvement", got)
	}
	// Neither A/A run is the baseline: the order must not matter.
	if a, b := aaDiff(lower, 10, 11), aaDiff(lower, 11, 10); a != b || a != 0.1 {
		t.Errorf("aaDiff = %v and %v, want 0.1 both ways", a, b)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in main.go
// are what the program prints. They must not drift apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q %q, code %q %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, but the program measures %d s by default and -aa runs that", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	// Every run, with its set-up and the two builds, must fit the
	// driver's 3420 s: 4 + 22 runs per workload.
	runs := 4 + 22*len(workloads)
	const perRunOverhead, builds = 5, 60 // seconds, measured: three set-ups and go run start-up take 4.2; a cold build 26
	if total := runs*(doc.RunSeconds+perRunOverhead) + builds; total > 3420 {
		t.Errorf("%d runs of %d s cannot fit the driver's budget: %d s > 3420 s", runs, doc.RunSeconds, total)
	}
}

func TestFlagsAndGuards(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, errb.String())
	}
	if code := run([]string{"-trace", "2"}, &out, &errb); code != 2 {
		t.Errorf("-trace 2: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("a rejected command line printed a result: %q", out.String())
	}
}
