package conc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// ringBench is what a clearing engine shares across swaps: one free
// clock, one registry, one trace ring and warm caches — the keyring, the
// shape cache and the verification cache.
type ringBench struct {
	sc      *sched.Virtual
	reg     *chain.Registry
	log     *trace.Log
	keyring *core.Keyring
	shapes  *core.ShapeCache
	cache   *hashkey.VerifyCache
	swaps   int
}

func newRingBench() *ringBench {
	sc := sched.NewVirtual(1)
	return &ringBench{
		sc: sc, reg: chain.NewRegistry(sc), log: &trace.Log{},
		keyring: core.NewKeyring(rand.New(rand.NewSource(1))),
		shapes:  new(core.ShapeCache), cache: hashkey.NewVerifyCache(0),
	}
}

// ringCost is what one swap's bookkeeping allocated, phase by phase.
type ringCost struct{ clear, prepare, settle uint64 }

// run clears, prepares and runs one conforming three-party ring over
// assets minted beforehand, as an engine's intake would, and counts the
// heap objects of its bookkeeping: core.Clear, conc.Prepare (both with the
// clock held), and the horizon delivery up to OnDone — a probe at the
// horizon tick, scheduled first, reads the count before the run's own
// delivery there. The protocol between, whose chain records are the
// chains' cost, is not counted. It returns the run record, settled.
func (b *ringBench) run(t *testing.T) (*Running, ringCost) {
	t.Helper()
	b.swaps++
	chains := [3]string{"btc", "eth", "sol"}
	offers := make([]core.Offer, 3)
	for i := range offers {
		to := chain.PartyID(fmt.Sprintf("p%d", (i+1)%3))
		offers[i] = core.Offer{Party: chain.PartyID(fmt.Sprintf("p%d", i)), Give: []core.ProposedTransfer{{
			To: to, Chain: chains[i], Asset: chain.AssetID(fmt.Sprintf("a%d-%d", b.swaps, i)), Amount: 5,
		}}}
		if err := b.reg.Chain(chains[i]).RegisterAsset(chain.Asset{ID: offers[i].Give[0].Asset, Amount: 5}, offers[i].Party); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{
		Kind: core.KindByLeaders, Tag: fmt.Sprintf("swap-%d", b.swaps), Delta: 20, Start: b.sc.Now().Add(40),
		Rand: rand.New(rand.NewSource(int64(b.swaps))), Keyring: b.keyring, Cache: b.cache, Shapes: b.shapes,
	}
	var before, cleared, prepping, prepared, probe, settledAt runtime.MemStats
	done := make(chan struct{}, 1)
	settled := settleFunc(func(*Result) {
		runtime.ReadMemStats(&settledAt)
		done <- struct{}{}
	})

	b.sc.Acquire()
	runtime.ReadMemStats(&before)
	setup, err := core.Clear(offers, cfg)
	runtime.ReadMemStats(&cleared)
	if err != nil {
		t.Fatal(err)
	}
	horizon := setup.Spec.Horizon().Add(vtime.Scale(horizonPad, setup.Spec.Delta))
	b.sc.At(horizon, func() { runtime.ReadMemStats(&probe) })
	runtime.ReadMemStats(&prepping)
	rn, err := Prepare(setup, nil, Config{Scheduler: b.sc, Registry: b.reg, Log: b.log, OnDone: settled})
	runtime.ReadMemStats(&prepared)
	b.sc.Release()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if !rn.r.res.Report.AllDeal() {
		t.Fatal("conforming ring did not end all-Deal")
	}
	return rn, ringCost{
		clear:   cleared.Mallocs - before.Mallocs,
		prepare: prepared.Mallocs - prepping.Mallocs,
		settle:  settledAt.Mallocs - probe.Mallocs,
	}
}

// TestRingSwapBookkeepingObjects pins the heap objects one conforming
// ring swap's bookkeeping costs on warm caches, chain records excluded:
// Clear binds it into one plan plus the string its contract IDs are cut
// from, Prepare lays the run out in one record plus its delivery slab,
// and the horizon delivery settles it into the record. (They were 19,
// 14.5 and 13 objects: per-swap maps, a closure per refund alarm, a
// signer binding per vertex.) The count is the same at any GOMAXPROCS.
func TestRingSwapBookkeepingObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths being counted")
	}
	b := newRingBench()
	defer b.sc.Close()
	b.run(t) // warm the keyring, the shape cache and the chains' route maps
	_, got := b.run(t)
	if want := (ringCost{clear: 2, prepare: 2, settle: 0}); got != want {
		t.Errorf("ring swap bookkeeping: clear %d, prepare %d, settle %d objects; want %d, %d, %d",
			got.clear, got.prepare, got.settle, want.clear, want.prepare, want.settle)
	}
}

// TestSettledRunRecordIsCollected pins the run record's one rule: nothing
// that outlives the swap — a chain contract or ledger entry, a route, the
// scheduler, the shared trace ring — points into it, so once the swap has
// settled and its Running is dropped, the record is garbage.
func TestSettledRunRecordIsCollected(t *testing.T) {
	b := newRingBench()
	defer b.sc.Close()
	rn, _ := b.run(t)
	record := weak.Make(rn)
	rn = nil
	runtime.GC()
	if record.Value() != nil {
		t.Error("a settled swap's run record is still reachable after a collection")
	}
	runtime.KeepAlive(b)
}
