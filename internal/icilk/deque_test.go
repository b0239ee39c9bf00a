package icilk

import (
	"sync"
	"testing"
)

func mkTask(i int) *task { return &task{name: string(rune('a' + i%26))} }

// eachDeque runs a subtest against both deque implementations.
func eachDeque(t *testing.T, f func(t *testing.T, d taskDeque)) {
	t.Run("locked", func(t *testing.T) { f(t, &lockedDeque{}) })
	t.Run("chaselev", func(t *testing.T) { f(t, newCLDeque()) })
}

func TestDequeLIFOOwner(t *testing.T) {
	eachDeque(t, func(t *testing.T, d taskDeque) {
		t1, t2, t3 := mkTask(1), mkTask(2), mkTask(3)
		d.pushBottom(t1)
		d.pushBottom(t2)
		d.pushBottom(t3)
		if d.size() != 3 {
			t.Errorf("size = %d", d.size())
		}
		if got := d.popBottom(); got != t3 {
			t.Error("owner pops newest first")
		}
		if got := d.popBottom(); got != t2 {
			t.Error("owner pops in LIFO order")
		}
	})
}

func TestDequeFIFOThief(t *testing.T) {
	eachDeque(t, func(t *testing.T, d taskDeque) {
		t1, t2 := mkTask(1), mkTask(2)
		d.pushBottom(t1)
		d.pushBottom(t2)
		if got := d.stealTop(); got != t1 {
			t.Error("thief steals oldest first")
		}
		if got := d.stealTop(); got != t2 {
			t.Error("second steal gets the remaining task")
		}
		if d.stealTop() != nil || d.popBottom() != nil {
			t.Error("empty deque should yield nil")
		}
	})
}

func TestDequeConcurrentStealers(t *testing.T) {
	eachDeque(t, func(t *testing.T, d taskDeque) {
		const n = 1000
		for i := 0; i < n; i++ {
			d.pushBottom(mkTask(i))
		}
		var got sync.Map
		var wg sync.WaitGroup
		var count sync.WaitGroup
		count.Add(n)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					tk := d.stealTop()
					if tk == nil {
						return
					}
					if _, loaded := got.LoadOrStore(tk, true); loaded {
						t.Error("task stolen twice")
					}
					count.Done()
				}
			}()
		}
		wg.Wait()
		count.Wait() // all n tasks stolen exactly once
	})
}

// TestDequeOwnerVersusThieves churns the owner path (push/pop) against
// concurrent thieves and checks that every task is consumed exactly once
// — the Chase-Lev single-item CAS race in particular.
func TestDequeOwnerVersusThieves(t *testing.T) {
	eachDeque(t, func(t *testing.T, d taskDeque) {
		const n = 20000
		tasks := make([]*task, n)
		for i := range tasks {
			tasks[i] = mkTask(i)
		}
		var got sync.Map
		record := func(tk *task) {
			if _, loaded := got.LoadOrStore(tk, true); loaded {
				t.Error("task consumed twice")
			}
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if tk := d.stealTop(); tk != nil {
						record(tk)
						continue
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		// Owner: push a few, pop one, repeatedly.
		for i := 0; i < n; {
			for k := 0; k < 3 && i < n; k++ {
				d.pushBottom(tasks[i])
				i++
			}
			if tk := d.popBottom(); tk != nil {
				record(tk)
			}
		}
		for {
			tk := d.popBottom()
			if tk == nil {
				break
			}
			record(tk)
		}
		close(stop)
		wg.Wait()
		for tk := d.stealTop(); tk != nil; tk = d.stealTop() {
			record(tk)
		}
		missing := 0
		for _, tk := range tasks {
			if _, ok := got.Load(tk); !ok {
				missing++
			}
		}
		if missing != 0 {
			t.Errorf("%d tasks lost", missing)
		}
	})
}

// TestDequeGrowth forces the Chase-Lev ring past its initial capacity.
func TestDequeGrowth(t *testing.T) {
	d := newCLDeque()
	const n = clInitialSize * 8
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = mkTask(i)
		d.pushBottom(tasks[i])
	}
	if d.size() != n {
		t.Fatalf("size = %d, want %d", d.size(), n)
	}
	// Oldest first from the top.
	if got := d.stealTop(); got != tasks[0] {
		t.Error("steal after growth returns wrong task")
	}
	// Newest first from the bottom.
	if got := d.popBottom(); got != tasks[n-1] {
		t.Error("pop after growth returns wrong task")
	}
}

func TestInjectQueueFIFO(t *testing.T) {
	q := newInjectQueue()
	if q.pop() != nil {
		t.Error("empty queue should pop nil")
	}
	t1, t2, t3 := mkTask(1), mkTask(2), mkTask(3)
	q.push(t1)
	q.push(t2)
	q.push(t3)
	if q.size() != 3 {
		t.Errorf("size = %d", q.size())
	}
	if q.pop() != t1 || q.pop() != t2 || q.pop() != t3 {
		t.Error("inject queue is not FIFO")
	}
	if q.pop() != nil {
		t.Error("drained queue should pop nil")
	}
}

func TestInjectQueueConcurrent(t *testing.T) {
	q := newInjectQueue()
	const producers, perProducer = 4, 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.push(mkTask(i))
			}
		}()
	}
	var got sync.Map
	var consumed sync.WaitGroup
	consumed.Add(producers * perProducer)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		go func() {
			for {
				if tk := q.pop(); tk != nil {
					if _, loaded := got.LoadOrStore(tk, true); loaded {
						t.Error("task popped twice")
					}
					consumed.Done()
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	consumed.Wait()
	close(stop)
}

func TestLevelPending(t *testing.T) {
	// Build the level directly: pushing inert tasks into a live
	// runtime's queues would hand them to real workers.
	for _, locked := range []bool{false, true} {
		L := &level{inject: newInjectQueue()}
		for i := 0; i < 2; i++ {
			L.deques = append(L.deques, newTaskDeque(Config{LockedDeques: locked}))
		}
		if L.pending() {
			t.Error("fresh level should not be pending")
		}
		L.inject.push(mkTask(0))
		if !L.pending() {
			t.Error("level with injected work should be pending")
		}
		L.inject.pop()
		L.deques[1].pushBottom(mkTask(1))
		if !L.pending() {
			t.Error("level with deque work should be pending")
		}
		L.deques[1].popBottom()
	}
}

func TestEffLevel(t *testing.T) {
	rt := New(Config{Workers: 1, Levels: 3, Prioritize: true})
	defer rt.Shutdown()
	cases := []struct {
		p    Priority
		want int
	}{{-1, 0}, {0, 0}, {2, 2}, {7, 2}}
	for _, c := range cases {
		if got := rt.effLevel(c.p); got != c.want {
			t.Errorf("effLevel(%d) = %d, want %d", c.p, got, c.want)
		}
	}
	base := New(Config{Workers: 1, Levels: 3, Prioritize: false})
	defer base.Shutdown()
	if base.effLevel(2) != 0 {
		t.Error("baseline mode maps all priorities to level 0")
	}
}

func TestAllocationView(t *testing.T) {
	rt := New(Config{Workers: 3, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	alloc := rt.Allocation()
	if len(alloc) != 3 {
		t.Errorf("allocation size = %d", len(alloc))
	}
	for _, l := range alloc {
		if l < 0 || l >= 2 {
			t.Errorf("allocation level %d out of range", l)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != 4 || c.Levels != 2 || c.Gamma != 2 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if !c.checkInversions || !c.collectMetrics {
		t.Error("checks and metrics should default on")
	}
	if c.LockedDeques {
		t.Error("lock-free deques should be the default")
	}
	c2 := Config{DisableInversionCheck: true, DisableMetrics: true}.withDefaults()
	if c2.checkInversions || c2.collectMetrics {
		t.Error("disable flags should turn features off")
	}
}

func TestGoSelfProvidesOwnFuture(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()
	fut := GoSelf(rt, nil, 0, "selfaware", func(c *Ctx, self Future[int]) int {
		if !self.Valid() {
			t.Error("self future is invalid")
			return 0
		}
		if self.Done() {
			t.Error("own future cannot be done while running")
		}
		if self.Priority() != 0 {
			t.Error("own future priority wrong")
		}
		return 77
	})
	v, err := Await(fut, 5e9)
	if err != nil || v != 77 {
		t.Errorf("GoSelf: v=%d err=%v", v, err)
	}
}

func TestHelpUpward(t *testing.T) {
	// One worker pinned (by assignment) to the low level must still pick
	// up high-priority work when its own level is dry.
	rt := New(Config{Workers: 1, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	// Force the worker onto level 0.
	rt.assignment[0].Store(0)
	fut := Go(rt, nil, 1, "high", func(*Ctx) int { return 1 })
	if v, err := Await(fut, 5e9); err != nil || v != 1 {
		t.Errorf("help-upward failed: v=%d err=%v", v, err)
	}
}
