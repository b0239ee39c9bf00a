package email

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/huffman"
	"repro/internal/icilk"
	"repro/internal/stats"
)

func shortCfg(seed int64) Config {
	return Config{
		Users:         4,
		EmailsPerUser: 12,
		Clients:       6,
		Duration:      150 * time.Millisecond,
		MeanThink:     4 * time.Millisecond,
		Seed:          seed,
	}
}

func TestEmailServesRequests(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	res := Run(rt, shortCfg(1))
	if res.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if res.Sends+res.Sorts+res.Prints == 0 {
		t.Error("no operations performed")
	}
	if int64(len(res.Responses)) != res.Requests {
		t.Errorf("responses %d != requests %d", len(res.Responses), res.Requests)
	}
}

func TestEmailCompressionHappens(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	cfg := shortCfg(2)
	cfg.Duration = 300 * time.Millisecond
	res := Run(rt, cfg)
	if res.Compresses == 0 {
		t.Error("the check component should have fired compressions")
	}
}

func TestEmailBaselineMode(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: false})
	defer rt.Shutdown()
	res := Run(rt, shortCfg(3))
	if res.Requests == 0 {
		t.Fatal("no requests under baseline scheduling")
	}
}

func TestEmailComponentRecords(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 4, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	cfg := shortCfg(4)
	cfg.Duration = 300 * time.Millisecond
	res := Run(rt, cfg)
	for _, name := range []string{"event", "send", "sort", "print", "compress", "check"} {
		samples := res.Components[name].Samples()
		if len(samples) == 0 {
			t.Errorf("no samples for component %q", name)
		}
		for _, d := range samples {
			if d <= 0 {
				t.Errorf("component %q sample %v, want > 0", name, d)
				break
			}
		}
	}
	if len(res.Components) != 6 {
		t.Errorf("components = %d, want 6", len(res.Components))
	}
}

func TestPrintDecompressesCorrectly(t *testing.T) {
	// Direct check of the print/compress interaction on one mailbox:
	// compress an email, then print it — print must see valid content.
	rt := icilk.New(icilk.Config{Workers: 2, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	srv := &Server{rt: rt}
	cfg := Config{}.withDefaults()
	srv.printer = newTestDevice(cfg)
	box := newTestMailbox(rt, 3)
	srv.boxes = []*mailbox{box}

	original := append([]byte(nil), box.emails[1].body...)
	box.emails[1].body = huffman.Encode(box.emails[1].body)
	box.emails[1].compressed = true

	fut := icilk.GoSelf(rt, nil, PrioCompress, "print",
		func(c *icilk.Ctx, self icilk.Future[int]) int {
			srv.print(c, box, 1, self)
			return 0
		})
	if _, err := icilk.Await(fut, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dec, err := huffman.Decode(box.emails[1].body)
	if err != nil {
		t.Fatalf("body should still be a valid blob: %v", err)
	}
	if !bytes.Equal(dec, original) {
		t.Error("compressed body corrupted by print")
	}
}

// TestMailboxSlotPrintCompressProtocol: the Section 5.1 protocol on a
// mailbox slot. A print task installs its handle in the email's slot;
// compress swaps in its own, finds the print handle, and touches it
// before compressing — so the body is still plain text when the print
// finishes.
func TestMailboxSlotPrintCompressProtocol(t *testing.T) {
	rt := icilk.New(icilk.Config{Workers: 2, Levels: Levels, Prioritize: true})
	defer rt.Shutdown()
	srv := &Server{rt: rt}
	box := newTestMailbox(rt, 2)
	e := box.emails[1]

	printGate := make(chan struct{})
	var compressedMidPrint atomic.Bool
	printFut := icilk.GoSelf(rt, nil, PrioCompress, "print",
		func(c *icilk.Ctx, self icilk.Future[int]) int {
			box.slots[e.id].Swap(self.Untyped())
			close(printGate)
			busy := time.Now().Add(2 * time.Millisecond)
			for time.Now().Before(busy) {
			}
			e.mu.Lock(c)
			compressedMidPrint.Store(e.compressed)
			e.mu.Unlock(c)
			return 0
		})
	<-printGate
	var compresses atomic.Int64
	icilk.Go(rt, nil, PrioCheck, "check", func(c *icilk.Ctx) int {
		srv.compress(c, box, e, &compresses, new(stats.Recorder))
		return 0
	})
	if _, err := icilk.Await(printFut, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if compressedMidPrint.Load() {
		t.Error("compress ran while the print holding the slot was in flight")
	}
	if n := compresses.Load(); n != 1 {
		t.Errorf("compresses = %d, want 1", n)
	}
}

func newTestDevice(cfg Config) *deviceAlias {
	return deviceForTest(cfg)
}
