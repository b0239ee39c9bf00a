package icilk

import "sync/atomic"

// clDeque is a lock-free work-stealing deque after Chase & Lev,
// "Dynamic Circular Work-Stealing Deque" (SPAA 2005), on a growable
// power-of-two ring buffer. The owner (the goroutine holding the
// worker's slot) operates on the bottom without ever taking a lock or
// failing; thieves race on top with a single CAS. top only ever grows,
// which rules out ABA, and Go's sync/atomic gives the sequentially
// consistent ordering the published proof assumes.
//
// Every operation is O(1) and the owner's are wait-free: no lock
// round-trip on the hot path, and no shuffle on a steal. It is the one
// deque every level's workers use; the unit tests check it beside a
// mutex-guarded oracle.
type clDeque struct {
	top    atomic.Int64 // next index to steal; monotonically increasing
	bottom atomic.Int64 // next index to push
	ring   atomic.Pointer[clRing]
}

// clRing is one ring buffer incarnation. Slots are atomic because a slow
// thief may read a slot while the owner writes a later element into the
// same physical cell after wraparound; the top CAS then rejects the
// thief, so the torn read is never used.
type clRing struct {
	mask  int64
	slots []atomic.Pointer[task]
}

const clInitialSize = 64

func newCLRing(size int64) *clRing {
	return &clRing{mask: size - 1, slots: make([]atomic.Pointer[task], size)}
}

func (r *clRing) get(i int64) *task    { return r.slots[i&r.mask].Load() }
func (r *clRing) put(i int64, t *task) { r.slots[i&r.mask].Store(t) }
func (r *clRing) grow(top, bottom int64) *clRing {
	bigger := newCLRing(2 * int64(len(r.slots)))
	for i := top; i < bottom; i++ {
		bigger.put(i, r.get(i))
	}
	return bigger
}

func newCLDeque() *clDeque {
	d := &clDeque{}
	d.ring.Store(newCLRing(clInitialSize))
	return d
}

func (d *clDeque) pushBottom(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.ring.Load()
	if b-tp >= int64(len(r.slots)) {
		r = r.grow(tp, b)
		d.ring.Store(r)
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

func (d *clDeque) popBottom() *task {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: undo the reservation.
		d.bottom.Store(tp)
		return nil
	}
	t := r.get(b)
	if b > tp {
		// No thief can pass its bottom check for index b once bottom
		// holds b, so the owner may clear the slot and drop the task
		// reference. (stealTop deliberately does not clear: a thief's
		// late write could race a wrapped push by the owner.)
		r.put(b, nil)
		return t
	}
	// Last element: race the thieves for it.
	if !d.top.CompareAndSwap(tp, tp+1) {
		t = nil // a thief got there first
	} else {
		// Won: thieves with a stale top fail their CAS and discard
		// whatever they read, and the owner's own later writes to this
		// cell are program-ordered after this one.
		r.put(b, nil)
	}
	d.bottom.Store(tp + 1)
	return t
}

func (d *clDeque) stealTop() *task {
	for {
		tp := d.top.Load()
		b := d.bottom.Load()
		if tp >= b {
			return nil
		}
		t := d.ring.Load().get(tp)
		if d.top.CompareAndSwap(tp, tp+1) {
			return t
		}
		// Lost to the owner or another thief; re-examine.
	}
}

func (d *clDeque) size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
