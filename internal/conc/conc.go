// Package conc provides the concurrent data structure the paper's email
// case study relies on (Section 5.1): an atomic slot table supporting
// compare-and-swap of future handles (the client's print/compress
// coordination).
package conc

import (
	"sync/atomic"

	"repro/internal/icilk"
)

// SlotTable is an array of atomic future-handle slots indexed by integer
// IDs. It is the email application's coordination structure: "within each
// user's inbox data structure is an array indexed using the email ID
// where any thread attempting to print or compress the email will store
// its own handle" (Section 5.1). Swap is the CAS-style atomic exchange
// used there: install your own handle, obtain the previous one, and touch
// it before proceeding.
type SlotTable struct {
	slots []atomic.Pointer[icilk.Handle]
}

// NewSlotTable creates a table with n slots, all empty.
func NewSlotTable(n int) *SlotTable {
	return &SlotTable{slots: make([]atomic.Pointer[icilk.Handle], n)}
}

// Len returns the number of slots.
func (s *SlotTable) Len() int { return len(s.slots) }

// Swap installs h into slot i and returns the previously installed
// handle, or nil if the slot was empty.
func (s *SlotTable) Swap(i int, h *icilk.Handle) *icilk.Handle {
	return s.slots[i].Swap(h)
}

// Load returns the current handle in slot i without modifying it.
func (s *SlotTable) Load(i int) *icilk.Handle { return s.slots[i].Load() }

// CompareAndSwap installs next only if the slot currently holds old.
func (s *SlotTable) CompareAndSwap(i int, old, next *icilk.Handle) bool {
	return s.slots[i].CompareAndSwap(old, next)
}
