package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// probeHops is the hashkey path length the verification probes use
// (Figure 7's longest; the names carry it as _p12).
const probeHops = 12

// timeCalls calls fn for the given time and returns the mean microseconds
// per call. before, when set, runs untimed ahead of every call.
func timeCalls(before, fn func(), each time.Duration) float64 {
	fn() // first call pays lazy initialisation
	var timed time.Duration
	calls := 0
	for begin := time.Now(); calls == 0 || time.Since(begin) < each; {
		if before != nil {
			before()
		}
		t0 := time.Now()
		// Sub-microsecond calls are timed eight at a time so the clock
		// reads stay a small part of the measurement.
		n := 1
		if before == nil {
			n = 8
		}
		for i := 0; i < n; i++ {
			fn()
		}
		timed += time.Since(t0)
		calls += n
	}
	return float64(timed) / float64(calls) / 1e3
}

// shape names the swap digraph a workload clears: groups(n) returns n
// disjoint cleared groups of that shape.
type shape func(n int) []core.Offer

func ringShape(size int) shape {
	return func(n int) []core.Offer {
		offers := make([]core.Offer, 0, n*size)
		for r := 0; r < n; r++ {
			for i := 0; i < size; i++ {
				offers = append(offers, engine.LoadOffer(r, i, size, r))
			}
		}
		return offers
	}
}

func cliqueShape(n int) []core.Offer { return cliqueOffers(n, n) }

// probeContract is the smallest chain.Contract: every call succeeds and
// transfers nothing, so it never closes and Invoke measures the chain's
// own work (lock, ledger append, record hash, notification fan-out).
type probeContract struct{}

func (probeContract) ContractID() chain.ContractID { return "probe" }
func (probeContract) Party() chain.PartyID         { return "prober" }
func (probeContract) AssetID() chain.AssetID       { return "probe-asset" }
func (probeContract) StorageSize() int             { return 64 }
func (probeContract) Invoke(chain.Call) (chain.Result, error) {
	return chain.Result{Note: "ok"}, nil
}

// runProbes times the layers' public functions directly, on inputs
// shaped like the workload's: groups is its swap digraph, batch how many
// such groups one clearing round's batch holds.
func runProbes(seed int64, groups shape, batch int, each time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	probe := func(before, fn func()) float64 { return timeCalls(before, fn, each) }

	fx, err := hashkey.NewFixture(probeHops, rng)
	if err != nil {
		return nil, err
	}
	suffix := hashkey.New(fx.Key.Secret, fx.Signers[0])
	for i := 1; i < probeHops; i++ {
		suffix = suffix.Extend(fx.Signers[i])
	}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	out["hashkey.extend.us"] = probe(nil, func() { _ = suffix.Extend(fx.Signers[probeHops]) })
	hot := hashkey.NewVerifyCache(0)
	out["hashkey.verify_hot_p12.us"] = probe(nil, func() {
		check(fx.Key.VerifyExtended(fx.Lock, fx.D, 0, fx.Dir, hot))
	})
	out["hashkey.verify_cold_p12.us"] = probe(nil, func() {
		check(fx.Key.Verify(fx.Lock, fx.D, 0, fx.Dir))
	})
	// The protocol's unlock pattern: a one-link extension of a chain
	// some other contract already verified.
	var seeded *hashkey.VerifyCache
	out["hashkey.verify_fastpath.us"] = probe(func() {
		seeded = hashkey.NewVerifyCache(0)
		check(suffix.VerifyExtended(fx.Lock, fx.D, 0, fx.Dir, seeded))
	}, func() {
		check(fx.Key.VerifyExtended(fx.Lock, fx.D, 0, fx.Dir, seeded))
	})
	links := float64(fx.Key.PathLen())
	out["hashkey.batch_verify.us_per_link"] = probe(nil, func() {
		b := hashkey.NewBatch(fx.Dir, runtime.GOMAXPROCS(0))
		b.Add(fx.Key, fx.Lock, 0)
		if b.Settle(hashkey.NewVerifyCache(0)) != 0 {
			check(fmt.Errorf("probe: batch verification failed"))
		}
	}) / links

	ch := chain.New("probe", vtime.ClockFunc(func() vtime.Ticks { return 0 }))
	check(ch.RegisterAsset(chain.Asset{ID: "probe-asset", Amount: 1}, "prober"))
	check(ch.PublishContract("prober", probeContract{}))
	out["chain.invoke.us"] = probe(nil, func() {
		check(ch.Invoke("prober", "probe", "poke", nil, 16))
	})

	book := groups(batch)
	out["core.partition.us_per_offer"] = probe(nil, func() {
		_, err := core.PartitionOffers(book)
		check(err)
	}) / float64(len(book))

	group := groups(1)
	keyring := core.NewKeyring(rng)
	cache := hashkey.NewVerifyCache(0)
	out["core.setup.us_per_swap"] = probe(nil, func() {
		_, err := core.Clear(group, core.Config{Tag: "probe", Delta: 20, Rand: rng, Keyring: keyring, Cache: cache})
		check(err)
	})
	return out, failed
}
