package icilk

import (
	"sort"
	"strings"
	"sync"
)

// Lock-order recorder (Config.RecordLockOrder). The deadlock walk
// (deadlock.go) reports a circular wait at the moment it closes; this
// recorder reports the ORDERING hazard even on runs where the
// interleaving got lucky and no wait ever closed. Every acquisition —
// Lock, RLock, TryLock, in fast and slow paths alike — records one
// directed edge per lock the acquiring task already holds:
// held → acquired. A cycle in the accumulated graph means two code
// paths nest the same locks in opposite orders (the AB/BA shape), which
// an adversarial schedule can turn into a real deadlock no matter how
// many test runs happened to survive; a self-loop means a task
// re-acquired a lock it already holds, the reentrancy the primitives
// either panic on (write side) or silently deadlock on once a writer
// queues between the two holds (read side).
//
// Nodes are lock identities (the *waitq each lock embeds), not names:
// two shard locks sharing a label must not merge into one node, or a
// consistent shards[0]→shards[1] nesting would self-loop. Names appear
// only in the report. Read holds are recorded like write holds — a
// reader chain A(read)→B(read) against B(read)→A(read) deadlocks as
// soon as writers queue between the acquisitions, so the order
// discipline applies to every mode.
//
// The graph is append-only across the runtime's life and is recorded
// under one internal mutex; the flag is for tests and debug builds, not
// production serving. The per-task held set (task.ordHeld) is
// task-private, so only the graph append synchronizes.

// lockOrderGraph accumulates observed hold→acquire pairs.
type lockOrderGraph struct {
	mu    sync.Mutex
	succ  map[*waitq]map[*waitq]bool
	nodes []*waitq // insertion order, for deterministic reports
}

// recordAcquire notes that t acquired l while holding everything in
// t.ordHeld, adding one graph edge per held lock, then marks l held.
// Called from the acquiring task's own context on every successful
// acquisition path (callers gate on cfg.RecordLockOrder).
func (rt *Runtime) recordAcquire(t *task, l *waitq) {
	g := &rt.lockOrder
	g.mu.Lock()
	if g.succ == nil {
		g.succ = make(map[*waitq]map[*waitq]bool)
	}
	if _, ok := g.succ[l]; !ok {
		g.succ[l] = make(map[*waitq]bool)
		g.nodes = append(g.nodes, l)
	}
	for _, h := range t.ordHeld {
		g.succ[h][l] = true
	}
	g.mu.Unlock()
	t.ordHeld = append(t.ordHeld, l)
}

// recordRelease drops one hold of l from t's recorder held set (newest
// first, matching the release order of properly nested sections).
func (rt *Runtime) recordRelease(t *task, l *waitq) {
	for i := len(t.ordHeld) - 1; i >= 0; i-- {
		if t.ordHeld[i] == l {
			t.ordHeld = append(t.ordHeld[:i], t.ordHeld[i+1:]...)
			return
		}
	}
}

// LockOrderViolations analyzes the recorded hold→acquire graph and
// returns one human-readable line per potential deadlock: each
// self-loop (a reentrant re-acquire) and each strongly connected
// component of two or more locks (an AB/BA-style order inversion),
// whether or not any run ever deadlocked on it. The result is
// deterministic for a given set of recorded edges: components and
// their members are sorted by lock label. Empty without
// Config.RecordLockOrder, or when every observed nesting is consistent
// with one global order.
func (rt *Runtime) LockOrderViolations() []string {
	g := &rt.lockOrder
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for _, l := range g.nodes {
		if g.succ[l][l] {
			out = append(out, "reacquire of held "+l.lockLabel())
		}
	}
	for _, scc := range g.sccs() {
		if len(scc) < 2 {
			continue
		}
		labels := make([]string, len(scc))
		for i, l := range scc {
			labels[i] = l.lockLabel()
		}
		sort.Strings(labels)
		out = append(out, "lock-order cycle (potential deadlock): "+strings.Join(labels, " <-> "))
	}
	sort.Strings(out)
	return out
}

// sccs returns the graph's strongly connected components (Tarjan,
// iterative via an explicit recursion would be overkill: lock graphs
// are tiny, so the recursive form is fine). Caller holds g.mu.
func (g *lockOrderGraph) sccs() [][]*waitq {
	index := make(map[*waitq]int, len(g.nodes))
	low := make(map[*waitq]int, len(g.nodes))
	onStack := make(map[*waitq]bool, len(g.nodes))
	var stack []*waitq
	var comps [][]*waitq
	next := 0
	var strongconnect func(v *waitq)
	strongconnect = func(v *waitq) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range g.succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*waitq
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range g.nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comps
}
