package email

import (
	"fmt"
	"sync/atomic"

	"repro/internal/icilk"
	"repro/internal/simio"
)

// Test-only helpers exposing internals without widening the public API.

type deviceAlias = simio.Device

func deviceForTest(cfg Config) *simio.Device {
	return simio.NewDevice("printer", cfg.PrinterLatency, 1)
}

func newTestMailbox(rt *icilk.Runtime, n int) *mailbox {
	box := &mailbox{
		mu:    icilk.NewMutex(rt, PrioSend, "email.mailbox"),
		slots: make([]atomic.Pointer[icilk.Handle], n*2),
	}
	for e := 0; e < n; e++ {
		box.emails = append(box.emails, newEmail(rt, e, fmt.Sprintf("s-%d", e), body(0, e)))
		box.order = append(box.order, e)
	}
	return box
}
