// The clearing engine under load: thousands of offers stream into one
// long-running engine, which matches them into hundreds of swaps and
// executes those concurrently over a handful of shared chains. At the end
// the registry conservation invariant proves no asset was double-spent:
// every deposited asset still exists exactly once, party-owned, with its
// ledger hash chain intact.
//
// The whole service interaction is five lines:
//
//	eng := atomicswap.NewEngine(atomicswap.EngineConfig{Workers: 128})
//	eng.Start()
//	id, _ := eng.Submit(offer)            // × thousands, any goroutine; booked on the timeline
//	eng.Stop(ctx)                         // drain the book, finish swaps
//	fmt.Println(eng.Report())             // swaps/sec, latency, outcomes
//
// The second act is the open-loop harness: the same engine type fed by a
// ramping arrival process instead of an up-front book, reporting
// submit-to-settle latency percentiles as offered load climbs through
// the engine's capacity.
//
// The third act is the deterministic scenario harness: the same open-
// loop stream with deviating parties injected — silent leaders, crash
// faults, stalled unlocks — run twice from one seed. The two runs must
// produce byte-identical digests (Herlihy's safety invariant checked in
// both): every adversarial experiment the engine runs is replayable.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

// chains is the small shared set of mock blockchains every swap runs over.
var chains = []string{"btc", "eth", "sol", "ada", "dot", "xmr"}

func main() {
	eng := atomicswap.NewEngine(atomicswap.EngineConfig{
		Workers:       128,
		MaxBatch:      2048,
		Tick:          2 * time.Millisecond,
		Delta:         30,
		ClearInterval: 2 * time.Millisecond,
		Seed:          2018,
	})
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}

	// 350 barter rings of three parties each: 1050 offers, 350 swaps.
	const rings = 350
	offers := 0
	for r := 0; r < rings; r++ {
		members := []string{
			fmt.Sprintf("p%d-a", r), fmt.Sprintf("p%d-b", r), fmt.Sprintf("p%d-c", r),
		}
		for i, p := range members {
			offer := atomicswap.Offer{
				Party: atomicswap.PartyID(p),
				Give: []atomicswap.ProposedTransfer{{
					To:     atomicswap.PartyID(members[(i+1)%len(members)]),
					Chain:  chains[(r+i)%len(chains)],
					Asset:  atomicswap.AssetID(fmt.Sprintf("asset-%d-%d", r, i)),
					Amount: uint64(1 + r%97),
				}},
			}
			if _, err := eng.Submit(offer); err != nil {
				log.Fatalf("submit: %v", err)
			}
			offers++
		}
	}
	fmt.Printf("submitted %d offers across %d barter rings on %d shared chains\n",
		offers, rings, len(chains))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := eng.Stop(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}

	rep := eng.Report()
	fmt.Println()
	fmt.Println(rep)

	// The acceptance bar: a real clearing service, not a demo loop.
	if rep.OffersCleared < 1000 {
		log.Fatalf("FAIL: cleared %d offers, want >= 1000", rep.OffersCleared)
	}
	if rep.PeakConcurrent < 100 {
		log.Fatalf("FAIL: peak concurrency %d, want >= 100", rep.PeakConcurrent)
	}
	// Zero double-spends, by construction and by audit: every minted
	// asset exists exactly once, party-owned, ledgers intact.
	if err := eng.VerifyConservation(); err != nil {
		log.Fatalf("FAIL: conservation: %v", err)
	}
	if n := eng.Registry().Reservations(); n != 0 {
		log.Fatalf("FAIL: %d reservations leaked", n)
	}
	fmt.Printf("\nOK: %d offers cleared into %d swaps (peak %d concurrent), "+
		"%.1f swaps/sec, conservation verified on %d chains\n",
		rep.OffersCleared, rep.SwapsFinished, rep.PeakConcurrent,
		rep.SwapsPerSec, len(eng.Registry().Names()))

	// Act two: open-loop streaming intake. A ramp profile sweeps the
	// offered rate from a fifth of the average to double it — the classic
	// way to watch tail latency respond as load climbs — on a
	// virtual-time engine, so the whole sweep runs in CPU time.
	fmt.Println("\n--- open-loop ramp: 600 offers, 0.2x -> 2x of 4000 offers/sec ---")
	open, err := atomicswap.RunOpenLoad(
		atomicswap.EngineConfig{
			Workers:       64,
			MaxBatch:      2048,
			Tick:          time.Millisecond,
			Delta:         30,
			ClearInterval: time.Millisecond,
			Seed:          2019,
			Parallel:      true,
		},
		atomicswap.OpenLoadConfig{
			Offers:    600,
			Rate:      4000,
			Process:   atomicswap.RampArrivals{From: 0.2, To: 2},
			PartyPool: 64,
			Seed:      7,
		},
	)
	if err != nil {
		log.Fatalf("open-loop ramp: %v", err)
	}
	fmt.Printf("intake: %d offered, %d submitted, %d shed over ticks [%d, %d] (%s)\n",
		open.Load.Offered, open.Load.Submitted, open.Load.Shed,
		open.Load.FirstTick, open.Load.LastTick, open.Profile)
	fmt.Printf("latency: p50 %.3fms, p95 %.3fms, p99 %.3fms, max %.3fms\n",
		open.P50LatencyMs, open.P95LatencyMs, open.P99LatencyMs, open.MaxLatencyMs)
	// Sub-millisecond virtual-time settles must still report non-zero
	// percentiles — the truncation bug this demo would have masked.
	if open.P50LatencyMs <= 0 || open.P99LatencyMs <= 0 {
		log.Fatalf("FAIL: zeroed latency percentiles: p50=%v p99=%v",
			open.P50LatencyMs, open.P99LatencyMs)
	}
	fmt.Printf("\nOK: open-loop ramp cleared %d offers into %d swaps at non-zero tail latency\n",
		open.OffersCleared, open.SwapsFinished)

	// Act three: a seed-replayable adversarial swarm. A quarter of the
	// parties deviate — refusing to unlock, crashing mid-protocol,
	// stalling past their timelocks, never deploying — while offers
	// stream in open-loop. Run it twice: the digests must match byte for
	// byte, and in both runs no conforming party may end Underwater.
	fmt.Println("\n--- deterministic adversarial scenario: run twice, diff the digests ---")
	sc := atomicswap.Scenario{
		Name:    "example-swarm",
		Seed:    2020,
		Offers:  60,
		Rate:    3000,
		Profile: "poisson",
		Deviations: []atomicswap.ScenarioDeviation{
			{Strategy: "silent-leader", Rate: 0.10},
			{Strategy: "crash", Rate: 0.08},
			{Strategy: "stall-past-timelock", Rate: 0.07},
			{Strategy: "withhold-publish", Rate: 0.05},
		},
	}
	first, err := atomicswap.RunScenario(sc)
	if err != nil {
		log.Fatalf("scenario: %v", err)
	}
	second, err := atomicswap.RunScenario(sc)
	if err != nil {
		log.Fatalf("scenario replay: %v", err)
	}
	d := first.Digest
	fmt.Printf("intake: %d offered over ticks [%d, %d] (%s)\n",
		d.Offered, d.FirstTick, d.LastTick, d.Profile)
	fmt.Printf("swaps:  %d finished, outcomes %v\n", d.SwapsFinished, d.Outcomes)
	fmt.Printf("deviations injected: %v (%d orders sabotaged)\n", d.Deviations, d.OrdersSabotaged)
	fmt.Printf("digest: %s\n", d.Hash())
	if len(first.Violations) != 0 {
		log.Fatalf("FAIL: safety violations: %+v", first.Violations)
	}
	if d.Safety != "ok" || d.Conservation != "ok" {
		log.Fatalf("FAIL: safety=%q conservation=%q", d.Safety, d.Conservation)
	}
	if first.Digest.JSON() != second.Digest.JSON() {
		log.Fatalf("FAIL: replay diverged:\n%s\nvs\n%s",
			first.Digest.JSON(), second.Digest.JSON())
	}
	if len(d.Deviations) < 3 {
		log.Fatalf("FAIL: only %d deviation strategies landed: %v", len(d.Deviations), d.Deviations)
	}
	fmt.Printf("\nOK: adversarial swarm replayed byte-identically; "+
		"every conforming party acceptable across %d orders\n", len(d.Orders))
}
