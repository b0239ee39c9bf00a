package conc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/icilk"
)

func TestSlotTableSwap(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()
	st := NewSlotTable(4)
	if st.Len() != 4 {
		t.Errorf("Len = %d", st.Len())
	}
	fut := icilk.Go(rt, nil, 0, "work", func(*icilk.Ctx) int { return 5 })
	h := fut.Untyped()
	if prev := st.Swap(2, h); prev != nil {
		t.Error("first swap should return nil")
	}
	if got := st.Load(2); got != h {
		t.Error("Load should return the stored handle")
	}
	fut2 := icilk.Go(rt, nil, 0, "work2", func(*icilk.Ctx) int { return 6 })
	h2 := fut2.Untyped()
	if prev := st.Swap(2, h2); prev != h {
		t.Error("second swap should return the first handle")
	}
	if !st.CompareAndSwap(2, h2, nil) {
		t.Error("CAS with correct old value should succeed")
	}
	if st.CompareAndSwap(2, h2, h) {
		t.Error("CAS with stale old value should fail")
	}
	if _, err := icilk.Await(fut, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := icilk.Await(fut2, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSlotTablePrintCompressProtocol(t *testing.T) {
	// The Section 5.1 protocol: a print task installs its handle; a
	// compress task swaps in its own, finds the print handle, and touches
	// it before compressing.
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()
	st := NewSlotTable(1)
	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	printGate := make(chan struct{})
	_ = icilk.GoSelf(rt, nil, 0, "print",
		func(c *icilk.Ctx, self icilk.Future[int]) int {
			st.Swap(0, self.Untyped())
			close(printGate)
			busy := time.Now().Add(2 * time.Millisecond)
			for time.Now().Before(busy) {
			}
			note("print done")
			return 0
		})
	<-printGate
	compress := icilk.Go(rt, nil, 0, "compress", func(c *icilk.Ctx) int {
		prev := st.Swap(0, nil)
		if prev != nil {
			prev.Touch(c)
		}
		note("compress done")
		return 0
	})
	if _, err := icilk.Await(compress, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "print done" || order[1] != "compress done" {
		t.Errorf("order = %v, want print before compress", order)
	}
}
