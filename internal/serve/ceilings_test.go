package serve

import (
	"strings"
	"testing"
)

// TestDerivedCeilings pins the construction-time derivation: every
// shared store's ceiling is the max priority among its declared
// accessor classes — PrioInteractive for every store today: the handlers
// that count admissions, track sessions and count deadline misses run at
// every level up to it, and the interactive classes (ping, stats, proxy,
// error) are the accessors the table names.
func TestDerivedCeilings(t *testing.T) {
	for store := range storeAccessors {
		if got := derivedCeiling(store); got != PrioInteractive {
			t.Errorf("%s: derived ceiling %d, want %d", store, got, PrioInteractive)
		}
	}
}

// TestDerivedCeilingFailsFast: unknown stores and unknown classes are
// construction-time panics, not silent zero ceilings.
func TestDerivedCeilingFailsFast(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: expected a panic", name)
			} else if !strings.Contains(strings.ToLower(strings.TrimSpace(toString(r))), "serve:") {
				t.Errorf("%s: panic %v does not identify the serve layer", name, r)
			}
		}()
		fn()
	}
	mustPanic("unknown store", func() { derivedCeiling("serve.nonexistent") })
	mustPanic("unknown class", func() { classPrio("warp-speed") })
}

// TestValidateAdmission: the full admission surface fits the runtime's
// levels (jserver's job priorities included).
func TestValidateAdmission(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("admission table invalid: %v", r)
		}
	}()
	validateAdmission()
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}
