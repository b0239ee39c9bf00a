package icilk

import (
	"fmt"
	"slices"
	"strings"
)

// Deadlock diagnostics (Config.DetectDeadlocks). A Mutex or RWMutex
// knows its (write-side) holder, and a task about to park on one
// publishes which lock it is blocked on — unconditionally, since
// transitive priority inheritance (propagateBoost in waitq.go) chains
// boosts along the same edges; DetectDeadlocks only gates the cycle
// walk below. Walking those two edge kinds —
// task —blocked-on→ lock —held-by→ task — from the holder of the lock a
// waiter is about to park behind turns a silent circular wait into a
// panic that prints the cycle. The walk reads only atomics (no lock
// acquisition), so it imposes no lock ordering of its own, and its reads
// are not one snapshot: locks change hands while it runs. It therefore
// reports only a path it has seen twice, edge for edge. A real cycle is
// stable — every task on it is parked or about to park, and blocked-on
// edges stay published for as long as the task is queued — so the second
// walk finds it again; a path assembled from edges that never coexisted
// does not survive the re-read. A cycle missed on one waiter is caught
// by the next waiter that completes it.
//
// Read-side holds are invisible to the walk: RWMutex read holders are
// anonymous (a count, not identities), so a chain through "writer
// blocked behind readers" ends there undetected — the same limit the
// inheritance machinery has.

// DeadlockError reports a circular wait among tasks blocked on
// Mutex/RWMutex write holders, detected at the moment the cycle-closing
// task was about to park. Cycle is the printed chain.
type DeadlockError struct{ Cycle string }

func (e *DeadlockError) Error() string {
	return "icilk: deadlock: " + e.Cycle
}

// blockEdge publishes "t is about to block on q". It happens under q.mu
// before the task becomes visible on the waiter list, so a walk that
// finds the task waiting also finds the edge; the grant that takes the
// task off the list retracts it (waitq.pop).
func (t *task) blockEdge(q *waitq) {
	t.waitingOn.Store(q)
}

// maxCycleWalk bounds the walk; real cycles are short, and the bound
// keeps a racing hand-off storm from spinning the diagnostic.
const maxCycleWalk = 64

// waitEdge is one step of a walked path: task t blocked on lock q.
type waitEdge struct {
	t *task
	q *waitq
}

// cyclePath follows blocked-on edges from holder and returns them if
// they lead to t, nil if the chain ends first: at a runnable task, at a
// lock with no exclusive holder, or at a task that holds the lock it is
// queued on — a grant in progress, not a wait.
func cyclePath(t, holder *task) []waitEdge {
	var path []waitEdge
	cur := holder
	for i := 0; i < maxCycleWalk; i++ {
		q := cur.waitingOn.Load()
		if q == nil {
			return nil
		}
		next := q.holderTask()
		if next == nil || next == cur {
			return nil
		}
		path = append(path, waitEdge{cur, q})
		if next == t {
			return path
		}
		cur = next
	}
	return nil
}

// checkDeadlock reports the cycle that t, about to park on q behind
// holder, would close. The caller has published t's own edge and holds
// q.mu, which it must release before panicking with the result.
func checkDeadlock(t *task, q *waitq, holder *task) *DeadlockError {
	return confirmCycle(t, q, holder, cyclePath(t, holder))
}

// confirmCycle walks again and turns path into an error only if the
// second walk sees the identical edge sequence.
func confirmCycle(t *task, q *waitq, holder *task, path []waitEdge) *DeadlockError {
	if path == nil || !slices.Equal(path, cyclePath(t, holder)) {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "task %q blocks on %s held by %q", t.name, q.lockLabel(), holder.name)
	for i, e := range path {
		next := t
		if i+1 < len(path) {
			next = path[i+1].t
		}
		fmt.Fprintf(&b, ", which blocks on %s held by %q", e.q.lockLabel(), next.name)
	}
	return &DeadlockError{Cycle: b.String()}
}
