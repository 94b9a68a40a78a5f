package loadgen

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/sched"
)

// Per-offer ceilings for one Run, measured on a free clock against a
// target that only counts (go1.24 linux/amd64, GOMAXPROCS 1, 2 and 4): an
// offer allocates nothing of its own, its asset ID cut from the one
// string the run spells every ID into, so the run's slabs and its
// 192-name roster are the 0.042 objects an offer, and any object per
// offer trips the ceiling; its 233 bytes are pinned at + 5 %. (With an
// asset ID allocated per offer, 1.04 objects and 236 bytes.)
const (
	runAllocsPerOffer = 0.045
	runBytesPerOffer  = 245
)

// countingTarget is the least Target: Submit only counts, the book is
// always empty, and arrivals run on a free scheduler.
type countingTarget struct {
	v         *sched.Virtual
	submitted atomic.Int64
}

func (c *countingTarget) Submit(core.Offer) (engine.OrderID, error) {
	c.submitted.Add(1)
	return 0, nil
}
func (c *countingTarget) Pending() int              { return 0 }
func (c *countingTarget) NoteShed(int)              {}
func (c *countingTarget) Scheduler() *sched.Virtual { return c.v }
func (c *countingTarget) Tick() time.Duration       { return time.Millisecond }

// runAllocs returns the heap objects and bytes one Run allocates per
// offer, booking and firing included.
func runAllocs(t *testing.T, cfg Config) (objects, bytes float64) {
	t.Helper()
	tgt := &countingTarget{v: sched.NewVirtual(1)}
	defer tgt.v.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Run(context.Background(), tgt, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != st.Offered || int64(st.Submitted) != tgt.submitted.Load() {
		t.Fatalf("stats %+v, target took %d", st, tgt.submitted.Load())
	}
	n := float64(st.Offered)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestRunAllocs pins what the generator itself costs per offer on the
// steady workload's shape: Poisson three-party rings over a pool of 64
// identity groups.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths being counted")
	}
	cfg := Config{Offers: 6000, Rate: 1000, Process: Poisson{}, PartyPool: 64, Seed: 5}
	runAllocs(t, cfg) // warm the runtime's own pools
	objects, bytes := runAllocs(t, cfg)
	// Bytes also count what the runtime allocates for itself when the
	// host's timing asks for it (an OS thread started mid-run); those only
	// ever add, so the least of three runs is the generator's own.
	for range 2 {
		_, again := runAllocs(t, cfg)
		bytes = min(bytes, again)
	}
	t.Logf("%.3f allocs/offer (ceiling %.3f), %.0f bytes/offer (ceiling %d)",
		objects, runAllocsPerOffer, bytes, runBytesPerOffer)
	if objects > runAllocsPerOffer {
		t.Errorf("%.3f allocs/offer exceeds the pinned ceiling %.3f", objects, runAllocsPerOffer)
	}
	if bytes > runBytesPerOffer {
		t.Errorf("%.0f bytes/offer exceeds the pinned ceiling %d", bytes, runBytesPerOffer)
	}
}
