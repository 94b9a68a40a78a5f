package scenario

import (
	"fmt"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Suite is the built-in scenario corpus: one entry per workload shape
// the reproduction must keep witnessing. swapbench -scenario runs it,
// its digests are pinned under testdata/digests and replayed in every
// execution shape by TestReplayLadder, and future perf PRs
// inherit it as a fixed adversarial regression set. The seed offset
// shifts every scenario's seed, so one flag re-rolls the whole corpus.
//
// Every entry pins replay budgets (MaxClearRounds, MaxSettleTick):
// measured values for the pinned seed plus roughly 50% headroom, so a
// scheduling regression that slows clearing or stretches settles fails
// the suite even while all safety properties still hold. Re-measure
// (run the suite, read Digest.ClearRounds / LastSettleTick) and re-pin
// when a PR intentionally changes the schedule.
func Suite(seedOffset int64) []Scenario {
	return []Scenario{
		{
			// The conforming baseline: every swap must Deal.
			Name:           "conforming-poisson",
			Seed:           101 + seedOffset,
			Offers:         48,
			Rate:           2000,
			Profile:        "poisson",
			MaxClearRounds: 115, // measured 75
			MaxSettleTick:  125, // measured 81
		},
		{
			// The paper's griefing attack at scale: a quarter of parties
			// refuse to unlock, stalling or silencing their swaps; every
			// conforming party must walk away whole.
			Name:    "griefing-mix",
			Seed:    202 + seedOffset,
			Offers:  48,
			Rate:    2000,
			Profile: "poisson",
			Deviations: []Deviation{
				{Strategy: "silent-leader", Rate: 0.15},
				{Strategy: "stall-past-timelock", Rate: 0.10},
			},
			MaxClearRounds: 120, // measured 78
			MaxSettleTick:  150, // measured 99
		},
		{
			// Crash/abort interleavings under bursty load — the AC3-style
			// fault schedule: deployment starvation, random-phase crashes,
			// withheld claims.
			Name:    "crash-swarm",
			Seed:    303 + seedOffset,
			Offers:  48,
			Rate:    3000,
			Profile: "burst:8",
			Deviations: []Deviation{
				{Strategy: "withhold-publish", Rate: 0.10},
				{Strategy: "crash", Rate: 0.10},
				{Strategy: "no-claim", Rate: 0.05},
			},
			MaxClearRounds: 110, // measured 72
			MaxSettleTick:  220, // measured 144
		},
		{
			// Everything at once on a climbing ramp at a tight Δ: six
			// strategies and shed pressure in one replayable trace.
			Name:    "kitchen-sink-ramp",
			Seed:    404 + seedOffset,
			Offers:  60,
			Rate:    2500,
			Profile: "ramp:0.5:2",
			RingMin: 3,
			RingMax: 4,
			Delta:   4,
			Deviations: []Deviation{
				{Strategy: "silent-leader", Rate: 0.08},
				{Strategy: "withhold-publish", Rate: 0.06},
				{Strategy: "crash", Rate: 0.06},
				{Strategy: "stall-past-timelock", Rate: 0.06},
				{Strategy: "corrupt-publish", Rate: 0.06},
				{Strategy: "eager-publish", Rate: 0.06},
			},
			MaxClearRounds: 62,  // measured 41
			MaxSettleTick:  140, // measured 91
		},
		{
			// Kill the engine mid-clearing and recover from the WAL: the
			// crash lands while swaps are in flight — some resume, some
			// refund on spent timelock budget — so the digest witnesses the
			// whole two-life arc and must still replay byte-identically
			// from the seed.
			Name:      "engine-crash@tick",
			Seed:      606 + seedOffset,
			Offers:    48,
			Rate:      2500,
			Profile:   "poisson",
			CrashTick: 50, // mid-execution: 36 swaps resume, 12 refund
			Deviations: []Deviation{
				{Strategy: "silent-leader", Rate: 0.1},
			},
			MaxClearRounds: 135, // measured 89, both lives
			MaxSettleTick:  175, // measured 115
		},
		{
			// Sharded clearing, zero cross-shard traffic: every ring lives
			// inside one shard's chain pool, so the run is pure parallel
			// shard-local clearing — and its digest must be byte-identical
			// whether executed on 4 shards or folded onto 1
			// (TestReplayLadder's one-shard rung).
			Name:           "sharded-local",
			Seed:           707 + seedOffset,
			Offers:         48,
			Rate:           2000,
			Profile:        "poisson",
			Shards:         4,
			MaxClearRounds: 110, // measured 74
			MaxSettleTick:  120, // measured 79
		},
		{
			// Sharded clearing with half the rings spanning two shard
			// pools: those rings cannot clear locally, age past the
			// escalation cutoff, and settle through the coordinator —
			// the two-level protocol under real cross-shard pressure.
			Name:           "sharded-cross",
			Seed:           808 + seedOffset,
			Offers:         48,
			Rate:           2000,
			Profile:        "poisson",
			Shards:         4,
			CrossRatio:     0.5,
			MaxClearRounds: 120, // measured 78
			MaxSettleTick:  135, // measured 88
		},
		{
			// Overload: arrivals far beyond capacity against a tiny shed
			// threshold — the backstop's accounting, adversarially seasoned.
			Name:       "overload-shed",
			Seed:       505 + seedOffset,
			Offers:     60,
			Rate:       1e5,
			Profile:    "burst:16",
			MaxPending: 12,
			Deviations: []Deviation{
				{Strategy: "silent-leader", Rate: 0.2},
			},
			MaxClearRounds: 100, // measured 65
			MaxSettleTick:  95,  // measured 61
		},
		{
			// Chain realism: every chain needs 4 ticks of confirmation
			// depth and reverts ~15% of not-yet-final records at seeded
			// depths. Swaps settle, get reorged out, and re-settle (or
			// refund when the replay loses the race) — all conserving
			// assets, all byte-identical on replay, serial or sharded.
			Name:    "reorg-depth",
			Seed:    909 + seedOffset,
			Offers:  48,
			Rate:    2000,
			Profile: "poisson",
			Deviations: []Deviation{
				{Strategy: "reorg@4", Rate: 0.15},
			},
			MaxClearRounds: 140, // measured 93
			MaxSettleTick:  140, // measured 93
		},
		{
			// Chain realism under sharded clearing: the reorg-depth knobs
			// on the sharded-local placement — every ring inside one
			// shard's chain pool, every chain behind a 4-tick confirmation
			// depth with seeded reverts. Fates are drawn from canonical
			// identities, so the digest must be byte-identical whether
			// executed on 4 shards or folded onto 1 (TestReplayLadder's
			// one-shard rung).
			Name:    "reorg-sharded",
			Seed:    1010 + seedOffset,
			Offers:  48,
			Rate:    2000,
			Profile: "poisson",
			Shards:  4,
			Deviations: []Deviation{
				{Strategy: "reorg@4", Rate: 0.15},
			},
			MaxClearRounds: 140, // measured 94
			MaxSettleTick:  140, // measured 94
		},
		{
			// The secret-sharing cartel as a correlated group: about a
			// third of swaps grow a coalition of roughly half their ring
			// that shares leader secrets, unlocks early, randomly withholds
			// action categories, and occasionally crashes. Withheld
			// claims/refunds strand escrow (ledger-integrity audit); every
			// conforming party must still walk away whole, and the run
			// reports a nonzero griefing cost.
			Name:    "coalition-cartel",
			Seed:    1111 + seedOffset,
			Offers:  48,
			Rate:    2000,
			Profile: "poisson",
			RingMin: 3,
			RingMax: 5,
			Coalitions: []Coalition{
				{Strategy: "cartel", Rate: 0.35, Drop: 0.25, Halt: 0.2},
			},
			MaxClearRounds: 145, // measured 95
			MaxSettleTick:  290, // measured 192
		},
		{
			// Lemma 4.11's punishment cartel: in ~30% of swaps a coalition
			// escrows nothing, forcing conforming counterparties to wait
			// out their timelocks and refund — the canonical griefing
			// attack, priced by the economics layer (griefing cost is the
			// conforming capital × ticks the coalition locked up for free).
			Name:    "coalition-punishment",
			Seed:    1212 + seedOffset,
			Offers:  48,
			Rate:    2000,
			Profile: "poisson",
			RingMin: 3,
			RingMax: 5,
			Coalitions: []Coalition{
				{Strategy: "punishment", Rate: 0.30},
			},
			MaxClearRounds: 135, // measured 88
			MaxSettleTick:  245, // measured 161
		},
		{
			// Intake flooding under per-party fair shedding: 3 flood offers
			// ride on every organic one from a 2-group flooder pool,
			// against a tiny book budget. Fair shedding must land the
			// sheds on the flooders — the run itself asserts the organic
			// shed rate stays strictly below the coalition's — while a
			// punishment rider keeps a nonzero griefing cost on the board.
			Name:       "coalition-flood",
			Seed:       1313 + seedOffset,
			Offers:     48,
			Rate:       2000,
			Profile:    "poisson",
			MaxPending: 16,
			FairShed:   true,
			Coalitions: []Coalition{
				{Strategy: "flood", Rate: 0.75, Size: 2},
				{Strategy: "punishment", Rate: 0.30},
			},
			MaxClearRounds: 115, // measured 76
			MaxSettleTick:  215, // measured 142
		},
	}
}

// ByName returns the suite scenario with the given name.
func ByName(name string, seedOffset int64) (Scenario, error) {
	for _, sc := range Suite(seedOffset) {
		if sc.Name == name {
			return sc, nil
		}
	}
	names := make([]string, 0)
	for _, sc := range Suite(0) {
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (want all, reorg-grid, econ-grid, or one of %v)", name, names)
}

// Family resolves a scenario family by name: "all" is the suite,
// "reorg-grid" and "econ-grid" are the two parameter grids below, and any
// other name is one suite entry.
func Family(name string, seedOffset int64) ([]Scenario, error) {
	switch name {
	case "all":
		return Suite(seedOffset), nil
	case "reorg-grid":
		return ReorgGrid(seedOffset), nil
	case "econ-grid":
		return EconGrid(seedOffset), nil
	}
	sc, err := ByName(name, seedOffset)
	return []Scenario{sc}, err
}

// ReorgGrid is the chain-realism cost surface: confirmation depth (2/4/8
// ticks) crossed with reorg rate (0/10/25% per record) on the reorg-depth
// scenario's load shape, after the instant-finality baseline. Each digest
// says what realism costs at its point — clear_rounds, last_settle_tick,
// reverts.
func ReorgGrid(seedOffset int64) []Scenario {
	point := func(depth vtime.Duration, rate float64) Scenario {
		return Scenario{
			Name:         fmt.Sprintf("reorg-sweep-d%d-r%d", depth, int(100*rate)),
			Seed:         909 + seedOffset,
			Offers:       48,
			Rate:         2000,
			Profile:      "poisson",
			ConfirmDepth: depth,
			ReorgRate:    rate,
		}
	}
	grid := []Scenario{point(0, 0)}
	for _, depth := range []vtime.Duration{2, 4, 8} {
		for _, rate := range []float64{0, 0.10, 0.25} {
			grid = append(grid, point(depth, rate))
		}
	}
	return grid
}

// EconGrid is the griefing-cost surface: coalition size × formation rate
// for both in-swap coalition strategies, over 5-party rings (so every size
// up to 4 leaves at least one conforming victim), after the
// empty-coalition baseline — all the capital, none of the griefing. Each
// digest's economics block prices its point in tick-domain integrals: what
// the coalition cost conforming parties (griefing cost), what it staked
// itself (deviant lock), and the ratio (griefing factor).
func EconGrid(seedOffset int64) []Scenario {
	point := func(strategy string, size int, rate float64) Scenario {
		sc := Scenario{
			Name:    fmt.Sprintf("econ-sweep-%s-k%d-r%d", strategy, size, int(100*rate)),
			Seed:    1414 + seedOffset,
			Offers:  60,
			Rate:    2000,
			Profile: "poisson",
			RingMin: 5,
			RingMax: 5,
		}
		if rate > 0 {
			sc.Coalitions = []Coalition{{Strategy: strategy, Rate: rate, Size: size}}
		}
		return sc
	}
	grid := []Scenario{point("none", 0, 0)}
	for _, strategy := range []string{"punishment", "cartel"} {
		for _, size := range []int{2, 3, 4} {
			for _, rate := range []float64{0.25, 0.5, 1.0} {
				grid = append(grid, point(strategy, size, rate))
			}
		}
	}
	return grid
}
