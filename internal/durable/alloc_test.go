package durable

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestAppendAllocs pins the write path at zero: once the pending buffer
// has grown, encoding events, framing them into it and sealing them to
// the segment in one write allocates nothing, whatever the kind. What
// Append allocates beyond that is the fold's, measured here on a fresh key
// per run: a new asset's "chain/asset" key, and nothing else. An order or
// a swap is stored by value in its map, and an asset's record is cut from
// the store's slab, so only the maps' and the slab's growth allocate, and
// that is far below one object a run.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths being counted")
	}
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	events := append(swapEvents(5), engine.Event{Kind: engine.EvKilled, Tick: 99})
	seen := make(map[engine.EventKind]bool)
	for i := range events {
		ev := &events[i]
		if seen[ev.Kind] {
			continue
		}
		seen[ev.Kind] = true
		// Two frames a seal, as on a tick that appends more than once; the
		// warm-up run grows the buffer.
		if n := testing.AllocsPerRun(100, func() {
			s.frameEvent(ev)
			s.frameEvent(ev)
			if err := s.sealLocked(); err != nil {
				t.Fatalf("seal of %s frames: %v", ev.Kind, err)
			}
		}); n != 0 {
			t.Errorf("encode + frame + seal of %q events allocates %.0f objects, want 0", ev.Kind, n)
		}
	}
	if len(seen) != 13 {
		t.Errorf("measured %d event kinds, want all 13", len(seen))
	}

	// The whole Append, every run a key the fold has not seen: the
	// entry the fold inserts, plus what it copies out of the event.
	for _, tc := range []struct {
		name string
		ev   func(n int) engine.Event
		want float64
	}{
		{"booked, new order", func(n int) engine.Event {
			return engine.Event{Kind: engine.EvBooked, Tick: 1, Order: engine.OrderID(1_000_000 + n), Offer: events[2].Offer}
		}, 0},
		{"cleared, new swap", func(n int) engine.Event {
			return engine.Event{Kind: engine.EvCleared, Tick: 2, Swap: swapTags[n], Orders: events[10].Orders}
		}, 0},
		{"minted, new asset", func(n int) engine.Event {
			return engine.Event{Kind: engine.EvMinted, Tick: 1, Chain: "chain-0", Asset: chain.AssetID(swapTags[n]), Amount: 1, Party: "p0"}
		}, 1},
		{"released, known asset", func(n int) engine.Event {
			return engine.Event{Kind: engine.EvReleased, Tick: vtime.Ticks(10 + n), Swap: swapTags[0], Chain: "chain-0", Asset: chain.AssetID(swapTags[0]), Party: "p1"}
		}, 0},
		{"phase, known swap", func(int) engine.Event {
			return engine.Event{Kind: engine.EvPhase, Tick: 3, Swap: swapTags[0], Phase: "escrow", Deadline: 120}
		}, 0},
		{"settled, known order", func(int) engine.Event {
			return engine.Event{Kind: engine.EvSettled, Tick: 9, Order: 1_000_000, Swap: swapTags[0], Class: 1}
		}, 0},
	} {
		n := 0 // AllocsPerRun calls once to warm up, then runs times
		got := testing.AllocsPerRun(len(swapTags)-1, func() {
			s.Append(tc.ev(n))
			n++
		})
		if got != tc.want {
			t.Errorf("Append(%s) allocates %.0f objects, want %.0f", tc.name, got, tc.want)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("store latched %v", err)
	}
}

// swapTags are pre-built so the fresh-key runs above allocate no tag.
var swapTags = func() []string {
	tags := make([]string, 201)
	for i := range tags {
		tags[i] = fmt.Sprintf("swap-9%05d", i)
	}
	return tags
}()

// durableRing3AllocCeiling is the 30 heap objects (identical run to run,
// and at GOMAXPROCS 1, 2 and 4) one ring-3 swap costs end to end over a
// real Store — a single-leader component, so classic HTLCs; 19 appends
// sealed once a tick, a snapshot every 512; go1.24 linux/amd64,
// deterministic scheduler — plus 5 %: internal/engine's
// TestAllocationBudget ring-3 row with the WAL in the path. (With every
// order, HTLC and swap tag a heap object of its own, the same ring
// measured 37, under a ceiling of 39; while the
// fold kept a record per new order, asset and swap and the release path
// built every escrow owner's name, 48, under a
// ceiling of 84 pinned at 80; before a swap was bound into one plan and
// run from one record, 131; with a reflective snapshot encoder, 160;
// before shapes were compiled once and deliveries cut from a per-run slab,
// 332; on the hashkey protocol, 436.)
const durableRing3AllocCeiling = 32

// ring3AllocsPerSwap books `swaps` three-party rings on a fresh
// deterministic engine over a store in a fresh directory, drains it, and
// returns heap objects allocated per finished swap over submit → drain.
func ring3AllocsPerSwap(t *testing.T, swaps int) float64 {
	t.Helper()
	store, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer store.Close()
	e := engine.New(engine.Config{
		Deterministic: true,
		Tick:          time.Millisecond,
		Delta:         vtime.Duration(20),
		ClearInterval: time.Millisecond,
		Workers:       8,
		Seed:          1,
		Store:         store,
	})
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	release := e.Scheduler().Hold()
	for s := 0; s < swaps; s++ {
		for i := 0; i < 3; i++ {
			if _, err := e.Submit(engine.LoadOffer(s, i, 3, s%32)); err != nil {
				release()
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	runtime.ReadMemStats(&after)
	if err := store.Err(); err != nil {
		t.Fatalf("store latched %v", err)
	}
	if rep := e.Report(); rep.SwapsFinished != swaps || rep.SwapsFailed != 0 {
		t.Fatalf("finished %d swaps (%d failed), want %d", rep.SwapsFinished, rep.SwapsFailed, swaps)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(swaps)
}

// TestDurableAllocationBudget pins the heap objects one conforming
// ring-3 swap costs when every transition goes through the WAL.
func TestDurableAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths being counted")
	}
	const swaps = 96
	ring3AllocsPerSwap(t, swaps) // warm the runtime's own pools
	got := ring3AllocsPerSwap(t, swaps)
	t.Logf("%.0f allocs/swap (ceiling %d)", got, durableRing3AllocCeiling)
	if got > durableRing3AllocCeiling {
		t.Errorf("%.0f allocs/swap exceeds the pinned ceiling %d", got, durableRing3AllocCeiling)
	}
	runtime.GC()
}
