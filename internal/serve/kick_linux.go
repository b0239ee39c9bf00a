//go:build linux

package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// kickEvery spaces the kicker's polls: at most one epoll_wait per this
// long across all workers, however short their tasks.
const kickEvery = 20 * time.Microsecond

// kickDeadline is the past instant a kick sets as a read deadline.
var kickDeadline = time.Unix(1, 0)

// kicker lets busy workers wake the socket readers. Go reads a parked
// reader's socket only when a P runs out of goroutines or sysmon polls
// (every 10 ms), so on a server whose workers keep every P busy a
// request waits up to 10 ms before anything reads it. The kicker holds
// every raw connection's fd in one level-triggered epoll set, and its
// poll, the runtime's boundary hook, checks that set. For each readable
// connection whose reader is blocked in Read it sets the read deadline
// to the past. Go then readies the reader onto the polling worker's P,
// and one runtime.Gosched lets it parse and dispatch before the worker
// resumes. sockReader turns the kick back into a retried Read, so the
// parser never sees it.
type kicker struct {
	epfd  int
	epoch time.Time
	last  atomic.Int64 // time since epoch of the last poll

	pollMu sync.Mutex // one poll at a time; guards events
	events [64]syscall.EpollEvent

	mu    sync.Mutex
	conns map[int32]*sconn

	polls, kicks atomic.Int64
}

// newKicker returns nil when the epoll set cannot be made; every method
// is a no-op on nil.
func newKicker() *kicker {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	return &kicker{epfd: epfd, epoch: time.Now(), conns: map[int32]*sconn{}}
}

// add puts cn's socket in the set. A connection that is not a raw
// socket is never kicked, nor is one whose Control or epoll_ctl fails:
// its reader is left to Go's netpoller alone.
func (k *kicker) add(cn *sconn) {
	if k == nil || cn.raw == nil {
		return
	}
	_ = cn.raw.Control(func(fd uintptr) {
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(fd)}
		k.mu.Lock()
		if syscall.EpollCtl(k.epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev) == nil {
			k.conns[int32(fd)] = cn
		}
		k.mu.Unlock()
	})
}

// remove takes cn's socket out of the set. dropConn calls it before the
// Close that frees the fd for reuse, so Control cannot fail here.
func (k *kicker) remove(cn *sconn) {
	if k == nil || cn.raw == nil {
		return
	}
	_ = cn.raw.Control(func(fd uintptr) {
		k.mu.Lock()
		if k.conns[int32(fd)] == cn {
			delete(k.conns, int32(fd))
			syscall.EpollCtl(k.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
		}
		k.mu.Unlock()
	})
}

// poll is the boundary hook. Invariants:
//   - a kick is never visible to the parser: sockReader retries it;
//   - a spurious kick is harmless. A reader kicked between Reads, or the
//     reader of a new connection that reuses a just-closed fd, retries
//     once more;
//   - any deadline error before the reader's own deadline is a kick, so
//     no per-connection "kicked" flag can go stale.
func (k *kicker) poll() {
	now := int64(time.Since(k.epoch))
	last := k.last.Load()
	if now-last < int64(kickEvery) || !k.last.CompareAndSwap(last, now) || !k.pollMu.TryLock() {
		return
	}
	k.polls.Add(1)
	n, _ := syscall.EpollWait(k.epfd, k.events[:], 0) // on error (EINTR) n < 0: nothing to kick
	kicked := false
	if n > 0 {
		k.mu.Lock()
		for _, ev := range k.events[:n] {
			if cn := k.conns[ev.Fd]; cn != nil && cn.reading.CompareAndSwap(true, false) {
				cn.c.SetReadDeadline(kickDeadline)
				kicked = true
				k.kicks.Add(1)
			}
		}
		k.mu.Unlock()
	}
	k.pollMu.Unlock()
	if kicked {
		runtime.Gosched()
	}
}

// counts reports the kicks and polls so far.
func (k *kicker) counts() (kicks, polls int64) {
	if k == nil {
		return 0, 0
	}
	return k.kicks.Load(), k.polls.Load()
}

// close releases the epoll set. The runtime's hook must be removed
// first.
func (k *kicker) close() {
	if k != nil {
		syscall.Close(k.epfd)
	}
}
