package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
)

// Per-swap allocation ceilings: the heap objects measured on the
// deterministic scheduler (go1.24 linux/amd64, two cores) plus 5 %. A
// three-party ring clears on classic HTLCs at 48, the same on any core
// count; the same ring forced onto the hashkey protocol costs 148 and a
// four-party clique 728, a few more or less with the cores a presign table
// (DESIGN.md §16) finds. (With per-swap maps, a closure per refund alarm
// and a signer binding per vertex they measured 99, 188 and 793; with
// every swap deriving its own leaders and ladder, and every delivery its
// own heap record, scheduler event and closure, 269, 362 and 1475.) A
// change that pushes a swap's heap objects past its ceiling fails tier-1
// here, not only in benchmark/.
const (
	ring3AllocCeiling        = 50
	ring3GeneralAllocCeiling = 155
	clique4AllocCeiling      = 764
)

// cliqueOffers builds clique c of four-party complete digraphs over
// identity group `group`: every party gives a distinct asset to each of
// the other three (12 arcs, 3 leaders).
func cliqueOffers(c, group int) []core.Offer {
	const size = 4
	offers := make([]core.Offer, size)
	for i := range offers {
		o := core.Offer{Party: chain.PartyID(fmt.Sprintf("k%d-p%d", group, i))}
		for j := 0; j < size; j++ {
			if j == i {
				continue
			}
			o.Give = append(o.Give, core.ProposedTransfer{
				To:     chain.PartyID(fmt.Sprintf("k%d-p%d", group, j)),
				Chain:  loadChains[(c+i+j)%len(loadChains)],
				Asset:  chain.AssetID(fmt.Sprintf("kasset-%d-%d-%d", c, i, j)),
				Amount: uint64(1 + c%89),
			})
		}
		offers[i] = o
	}
	return offers
}

// startBooking starts a fresh deterministic engine for bookAndDrain.
func startBooking(t *testing.T, kind core.Kind) *Engine {
	t.Helper()
	e := New(Config{
		Deterministic: true,
		Tick:          time.Millisecond,
		Delta:         20,
		ClearInterval: time.Millisecond,
		Workers:       8,
		Seed:          1,
		Kind:          kind,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

// bookAndDrain books every offer before the engine's first clearing round —
// so one round clears them all — then drains it and audits the ledgers.
func bookAndDrain(t *testing.T, e *Engine, offers []core.Offer) {
	t.Helper()
	release := e.Scheduler().Hold()
	for _, o := range offers {
		if _, err := e.Submit(o); err != nil {
			release()
			t.Fatalf("submit: %v", err)
		}
	}
	release()
	drainAndStop(t, e)
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// allocsPerSwap returns heap objects allocated per finished swap over
// submit → drain of a fresh engine.
func allocsPerSwap(t *testing.T, kind core.Kind, offers []core.Offer, wantSwaps int) float64 {
	t.Helper()
	e := startBooking(t, kind)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bookAndDrain(t, e, offers)
	runtime.ReadMemStats(&after)
	rep := e.Report()
	if rep.SwapsFinished != wantSwaps || rep.SwapsFailed != 0 || rep.Outcomes["Deal"] != len(offers) {
		t.Fatalf("finished %d swaps (%d failed), outcomes %v; want %d swaps, all Deal",
			rep.SwapsFinished, rep.SwapsFailed, rep.Outcomes, wantSwaps)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(wantSwaps)
}

// TestAllocationBudget pins the heap objects one conforming swap costs,
// end to end through clearing, conc, sched, chain and hashkey.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths being counted")
	}
	const swaps, pool = 96, 32
	var rings, cliques []core.Offer
	for s := 0; s < swaps; s++ {
		for i := 0; i < 3; i++ {
			rings = append(rings, LoadOffer(s, i, 3, s%pool))
		}
		cliques = append(cliques, cliqueOffers(s, s%pool)...)
	}
	for _, tc := range []struct {
		name    string
		kind    core.Kind
		offers  []core.Offer
		ceiling float64
	}{
		{"ring-3", 0, rings, ring3AllocCeiling},
		{"ring-3-general", core.KindGeneral, rings, ring3GeneralAllocCeiling},
		{"clique-4", 0, cliques, clique4AllocCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocsPerSwap(t, tc.kind, tc.offers, swaps) // warm the runtime's own pools
			got := allocsPerSwap(t, tc.kind, tc.offers, swaps)
			t.Logf("%.0f allocs/swap (ceiling %.0f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%.0f allocs/swap exceeds the pinned ceiling %.0f", got, tc.ceiling)
			}
		})
	}
	// Hand the wall-clock tests that run next a collected heap: a
	// background cycle over this test's garbage would eat into their Δ.
	runtime.GC()
}
