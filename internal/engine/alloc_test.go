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
// deterministic scheduler (go1.24 linux/amd64, two cores) plus 5 %, and
// for the ring and the clique their bytes too. A three-party ring clears
// on classic HTLCs at 18 objects and 15.1 KB, the same on any core count;
// the same ring forced onto the hashkey protocol costs 32–34 objects, and
// a four-party clique 61–63 and 73.6–74.6 KB, the more the more cores a
// presign table (DESIGN.md §16) finds. (With every Swap unlock copying
// its key and spelling its note on the heap, every claim its note, and a
// hashkey built from three allocations, the hashkey rows measured 42 and
// 170 objects, the clique 73.8–74.5 KB; with a redeem boxing its
// argument, transfer and event and joining its note, the ledger joining
// every mint, escrow and transfer note, a partition copying every offer
// it grouped, and a delivery
// carrying every kind's payload in 224 bytes, the rows measured 41
// objects and 17.0 KB, 56 and 216; with a ledger joining a method to its
// note per call, 48, 148 and 727 — the hashkey rows also paying for
// contracts' parameters copied per verification, a three-allocation
// hashkey clone and a boxed argument, event and note join per unlock, and
// a heap key list per verified chain; with per-swap maps, a closure per
// refund alarm and a signer binding per vertex, 99, 188 and 793; with
// every swap deriving its own leaders and ladder, and every delivery its
// own heap record, scheduler event and closure, 269, 362 and 1475.) A
// change that pushes a swap's heap objects or bytes past its ceiling
// fails tier-1 here, not only in benchmark/.
const (
	ring3AllocCeiling        = 19
	ring3GeneralAllocCeiling = 36
	clique4AllocCeiling      = 67
	ring3ByteCeiling         = 15854
	clique4ByteCeiling       = 78330
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

// allocsPerSwap returns heap objects and bytes allocated per finished
// swap over submit → drain of a fresh engine.
func allocsPerSwap(t *testing.T, kind core.Kind, offers []core.Offer, wantSwaps int) (objects, bytes float64) {
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
	return float64(after.Mallocs-before.Mallocs) / float64(wantSwaps),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(wantSwaps)
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
		// bytes is the byte ceiling, pinned for the ring and the clique.
		bytes float64
	}{
		{"ring-3", 0, rings, ring3AllocCeiling, ring3ByteCeiling},
		{"ring-3-general", core.KindGeneral, rings, ring3GeneralAllocCeiling, 0},
		{"clique-4", 0, cliques, clique4AllocCeiling, clique4ByteCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocsPerSwap(t, tc.kind, tc.offers, swaps) // warm the runtime's own pools
			got, bytes := allocsPerSwap(t, tc.kind, tc.offers, swaps)
			t.Logf("%.0f allocs/swap (ceiling %.0f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%.0f allocs/swap exceeds the pinned ceiling %.0f", got, tc.ceiling)
			}
			if tc.bytes > 0 {
				// Bytes also count what the runtime allocates for itself
				// when the host's timing asks for it — an OS thread started
				// mid-run (≈ 5 KB), a goroutine's wait record — which the
				// object count rounds away. Those only ever add: the least
				// of three runs is the swap's own, reported to a tenth of a
				// KB so the ring's line is the same at any GOMAXPROCS (the
				// clique's grows with the presign tables its cores find).
				for range 2 {
					_, again := allocsPerSwap(t, tc.kind, tc.offers, swaps)
					bytes = min(bytes, again)
				}
				t.Logf("%.1f KB/swap (ceiling %.1f)", bytes/1000, tc.bytes/1000)
				if bytes > tc.bytes {
					t.Errorf("%.0f bytes/swap exceeds the pinned ceiling %.0f", bytes, tc.bytes)
				}
			}
		})
	}
	// Hand the wall-clock tests that run next a collected heap: a
	// background cycle over this test's garbage would eat into their Δ.
	runtime.GC()
}
