package icilk

import "sync/atomic"

// injectQueue is a lock-free multi-producer multi-consumer FIFO
// (Michael & Scott, PODC '96) used for each level's injection queue:
// external submissions, cross-level spawns, and unparked tasks arrive
// here from arbitrary goroutines, and any worker at the level may drain
// it. Go's garbage collector removes the ABA hazard of the classic
// algorithm, so plain pointer CAS suffices.
type injectQueue struct {
	head atomic.Pointer[injectNode] // dummy node; head.next is the oldest entry
	tail atomic.Pointer[injectNode]
	n    atomic.Int64
}

type injectNode struct {
	t    *task
	next atomic.Pointer[injectNode]
}

func newInjectQueue() *injectQueue {
	q := &injectQueue{}
	dummy := &injectNode{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// push appends t. Safe from any goroutine.
func (q *injectQueue) push(t *task) {
	node := &injectNode{t: t}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if next != nil {
			// Tail is lagging; help it along and retry.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, node) {
			q.tail.CompareAndSwap(tail, node)
			q.n.Add(1)
			return
		}
	}
}

// pop removes the oldest task, or nil. Safe from any goroutine.
func (q *injectQueue) pop() *task {
	for {
		head := q.head.Load()
		next := head.next.Load()
		if next == nil {
			return nil
		}
		if q.head.CompareAndSwap(head, next) {
			t := next.t
			next.t = nil // the node is the new dummy; drop its payload ref
			q.n.Add(-1)
			return t
		}
	}
}

// size reports the current length (racy snapshot, used for heuristics).
func (q *injectQueue) size() int { return int(q.n.Load()) }
