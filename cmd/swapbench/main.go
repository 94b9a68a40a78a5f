// Command swapbench runs the full experiment suite — one table per figure
// or quantitative claim of the paper (see DESIGN.md §4) — and prints the
// tables EXPERIMENTS.md records.
//
// Usage:
//
//	swapbench [-only E5[,E9,...]]
//	swapbench -engine-json [-vtime] [-adaptive-delta]
//	swapbench -engine-json -arrival-rate 4000 [-profile poisson] [-vtime]
//	swapbench -openloop-json
//	swapbench -bench-json
//	swapbench -scenario all [-scenario-seed N] [-scenario-parallel] [-scenario-shards N]
//	swapbench -reorg-json
//	swapbench -shard-json [-shard-repeat N] [-shard-rings N]
//
// With -scenario it runs seed-replayable adversarial scenarios (open-
// loop load with injected deviation strategies on the deterministic
// engine) and emits one replay-stable digest JSON line per scenario:
// the same invocation always prints the same bytes, so CI can diff two
// runs to prove determinism. See internal/engine/scenario.
//
// With -engine-json it instead sweeps the clearing engine at 1, 8, and 64
// concurrent swaps and emits one JSON object per line (the BENCH
// trajectory format), skipping the experiment tables. -vtime runs the
// sweep on virtual time (engine.Config.Parallel: striped over the workers,
// CPU-bound, fast, deterministic timing); -adaptive-delta enables the
// observed-latency Δ controller.
// Adding -arrival-rate switches the sweep from closed-loop (whole book
// submitted up front) to open-loop: offers arrive from the -profile
// arrival process (constant, poisson, burst[:n], ramp[:from:to]) at the
// given average offers/sec, and the report carries latency percentiles.
// With -openloop-json it emits the open-loop trajectory point committed
// as BENCH_03.json: a virtual-time rate sweep (latency percentiles vs
// offered load) plus the fixed-Δ vs adaptive-Δ pair at equal offered
// load on the real scheduler. With -bench-json it emits the full older
// trajectory point: the engine sweep on real and virtual time plus the
// hot-path micro-benchmarks (hashkey verification cached/uncached,
// keyring vs fresh-keygen setup) — the format committed as BENCH_NN.json
// files. With -reorg-json it emits the BENCH_06 chain-realism sweep:
// confirmation depth crossed with reorg rate on a fixed scenario load,
// reporting what each point costs in clearing rounds, settle latency,
// and reverted records. With -shard-json it emits the BENCH_05 sharded
// sweep (shard-count ladder × cross-shard traffic ratio on the
// striped-parallel dispatcher).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/engine/scenario"
	"github.com/go-atomicswap/atomicswap/internal/engine/shard"
	"github.com/go-atomicswap/atomicswap/internal/expt"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// engineSweep pushes a fixed ring load through the engine at increasing
// concurrency and prints {"concurrency":N,...} JSON lines. Virtual mode
// reuses a worker-sized party pool (4 waves of repeat customers), the
// same shape BenchmarkEngineThroughput/vtime-swaps-N measures.
func engineSweep(virtual, adaptive bool) error {
	bench := "engine_throughput"
	switch {
	case virtual && adaptive:
		bench = "engine_throughput_vtime_adaptive"
	case virtual:
		bench = "engine_throughput_vtime"
	case adaptive:
		bench = "engine_throughput_adaptive"
	}
	for _, workers := range []int{1, 8, 64} {
		cfg := engine.Config{
			Workers:       workers,
			Tick:          time.Millisecond,
			Delta:         vtime.Duration(20),
			ClearInterval: time.Millisecond,
			MaxBatch:      4096,
			Seed:          int64(workers),
			Parallel:      virtual,
			AdaptiveDelta: adaptive,
		}
		rings, ringSize := 2*workers, 3
		var opts []engine.LoadOption
		if virtual || adaptive {
			// Repeat customers in waves: the shape virtual mode is
			// benchmarked in, and the shape adaptive Δ needs — later
			// waves clear at the Δ the first wave's observations tuned.
			rings = 4 * workers
			opts = append(opts, engine.WithPartyPool(workers))
		}
		rep, err := engine.RunLoad(cfg, rings, ringSize, opts...)
		if err != nil {
			return fmt.Errorf("engine sweep at %d: %w", workers, err)
		}
		fmt.Printf("{\"bench\":%q,\"concurrency\":%d,\"report\":%s}\n",
			bench, workers, rep.JSON())
	}
	return nil
}

// adaptivePair runs the adaptive-Δ comparison: the same wide-Δ waved load
// with the controller off and on, reporting both so the trajectory can
// carry the speedup.
func adaptivePair() error {
	for _, adaptive := range []bool{false, true} {
		const workers = 8
		cfg := engine.Config{
			Workers:       workers,
			Tick:          time.Millisecond,
			Delta:         100,
			ClearInterval: time.Millisecond,
			MaxBatch:      4096,
			Seed:          7,
			MaxClearAhead: workers,
			AdaptiveDelta: adaptive,
			MinDelta:      8,
		}
		rep, err := engine.RunLoad(cfg, 3*workers, 3, engine.WithPartyPool(workers))
		if err != nil {
			return fmt.Errorf("adaptive pair (adaptive=%v): %w", adaptive, err)
		}
		name := "engine_widefixed"
		if adaptive {
			name = "engine_wideadaptive"
		}
		fmt.Printf("{\"bench\":%q,\"concurrency\":%d,\"report\":%s}\n", name, workers, rep.JSON())
	}
	return nil
}

// openLoopPoint runs one open-loop load and prints its JSON line: the
// engine report (latency percentiles, Δ trajectory) plus the generator's
// intake accounting.
func openLoopPoint(bench string, workers int, cfg engine.Config, lcfg loadgen.Config) error {
	rep, err := loadgen.RunOpenLoad(cfg, lcfg)
	if err != nil {
		return fmt.Errorf("%s at %d workers: %w", bench, workers, err)
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("{\"bench\":%q,\"concurrency\":%d,\"report\":%s}\n", bench, workers, body)
	return nil
}

// openLoopSweep replaces the closed-loop engine sweep when an arrival
// rate is given: the same 1/8/64 concurrency ladder, but offers stream
// in from the arrival process instead of pre-loading the book.
func openLoopSweep(rate float64, p loadgen.Process, virtual, adaptive bool) error {
	bench := "engine_openloop"
	switch {
	case virtual && adaptive:
		bench = "engine_openloop_vtime_adaptive"
	case virtual:
		bench = "engine_openloop_vtime"
	case adaptive:
		bench = "engine_openloop_adaptive"
	}
	for _, workers := range []int{1, 8, 64} {
		cfg := engine.Config{
			Workers:       workers,
			Tick:          time.Millisecond,
			Delta:         vtime.Duration(20),
			ClearInterval: time.Millisecond,
			MaxBatch:      4096,
			Seed:          int64(workers),
			Parallel:      virtual,
			AdaptiveDelta: adaptive,
		}
		lcfg := loadgen.Config{
			Offers:    12 * workers,
			Rate:      rate,
			Process:   p,
			PartyPool: workers,
			Seed:      int64(workers),
		}
		if err := openLoopPoint(bench, workers, cfg, lcfg); err != nil {
			return err
		}
	}
	return nil
}

// openLoopTrajectory emits the BENCH_03 point: tail latency versus
// offered load under virtual time (including a burst profile), then the
// adaptive-Δ payoff measured the way it is actually felt — submit-to-
// settle latency percentiles at equal offered load on the real
// scheduler, wide fixed Δ versus the controller.
func openLoopTrajectory() error {
	const workers = 8
	vcfg := func(seed int64) engine.Config {
		return engine.Config{
			Workers:       workers,
			Tick:          time.Millisecond,
			Delta:         vtime.Duration(20),
			ClearInterval: time.Millisecond,
			MaxBatch:      4096,
			Seed:          seed,
			Parallel:      true,
		}
	}
	// Latency vs offered load, Poisson arrivals on virtual time.
	for _, rate := range []float64{1000, 4000, 16000} {
		lcfg := loadgen.Config{
			Offers: 240, Rate: rate, Process: loadgen.Poisson{},
			PartyPool: workers, Seed: 11,
		}
		if err := openLoopPoint("engine_openloop_vtime", workers, vcfg(int64(rate)), lcfg); err != nil {
			return err
		}
	}
	// Synchronized spikes: same average rate, bursts of 16.
	if err := openLoopPoint("engine_openloop_vtime_burst", workers, vcfg(5), loadgen.Config{
		Offers: 240, Rate: 4000, Process: loadgen.Burst{Size: 16},
		PartyPool: workers, Seed: 11,
	}); err != nil {
		return err
	}
	// Fixed wide Δ vs adaptive Δ at equal offered load, real scheduler:
	// the latency the conservative timelock width costs, and how much of
	// it the controller gives back.
	for _, adaptive := range []bool{false, true} {
		cfg := engine.Config{
			Workers:       workers,
			Tick:          time.Millisecond,
			Delta:         100,
			ClearInterval: time.Millisecond,
			MaxBatch:      4096,
			Seed:          7,
			MaxClearAhead: workers,
			AdaptiveDelta: adaptive,
			MinDelta:      8,
		}
		bench := "engine_openloop_widefixed"
		if adaptive {
			bench = "engine_openloop_adaptive"
		}
		lcfg := loadgen.Config{
			Offers: 120, Rate: 600, Process: loadgen.Poisson{},
			PartyPool: workers, Seed: 13,
		}
		if err := openLoopPoint(bench, workers, cfg, lcfg); err != nil {
			return err
		}
	}
	return nil
}

// runScenarios executes one named scenario (or the whole built-in
// suite) deterministically and prints one replay-stable JSON line per
// run: the canonical digest plus its sha256 fingerprint. Two
// invocations with the same arguments must emit byte-identical output —
// the CI replay job diffs exactly that, and diffs a -scenario-parallel
// run against the serial one too (parallel dispatch is an execution
// knob, not a schedule knob). A safety violation fails the command.
func runScenarios(name string, seedOffset int64, parallel bool, shards int) error {
	var scs []scenario.Scenario
	if name == "all" {
		scs = scenario.Suite(seedOffset)
	} else {
		sc, err := scenario.ByName(name, seedOffset)
		if err != nil {
			return err
		}
		scs = []scenario.Scenario{sc}
	}
	violations := 0
	for _, sc := range scs {
		sc.Parallel = parallel
		sc.ExecShards = shards
		res, err := scenario.Run(sc)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		fmt.Printf("{\"bench\":\"scenario\",\"hash\":%q,\"digest\":%s}\n",
			res.Digest.Hash(), res.Digest.JSON())
		violations += len(res.Violations)
	}
	if violations > 0 {
		return fmt.Errorf("scenarios reported %d safety violations", violations)
	}
	return nil
}

// timeOp reports the mean ns/op of fn over enough iterations to fill
// roughly 200ms, with a floor of 10 iterations.
func timeOp(fn func()) float64 {
	fn() // warm up
	iters := 10
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	for elapsed := time.Since(start); elapsed < 200*time.Millisecond; elapsed = time.Since(start) {
		more := iters
		for i := 0; i < more; i++ {
			fn()
		}
		iters += more
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// hashkeyMicro measures verification at path length hops, cached and not,
// over the same fixture BenchmarkHashkey uses.
func hashkeyMicro(hops int) error {
	fx, err := hashkey.NewFixture(hops, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	cache := hashkey.NewVerifyCache(0)
	cached := timeOp(func() {
		if err := fx.Key.VerifyExtended(fx.Lock, fx.D, 0, fx.Dir, cache); err != nil {
			panic(err)
		}
	})
	uncached := timeOp(func() {
		if err := fx.Key.Verify(fx.Lock, fx.D, 0, fx.Dir); err != nil {
			panic(err)
		}
	})
	fmt.Printf("{\"bench\":\"hashkey_verify\",\"path_len\":%d,\"cached_ns_op\":%.0f,\"uncached_ns_op\":%.0f,\"speedup\":%.1f}\n",
		hops, cached, uncached, uncached/cached)
	return nil
}

// keyringMicro measures three-party setup cost with fresh per-swap keygen
// vs a persistent keyring, mirroring BenchmarkKeyring.
func keyringMicro() {
	d := graphgen.ThreeWay()
	seed := int64(0)
	fresh := timeOp(func() {
		seed++
		if _, err := core.NewSetup(d, core.Config{Rand: rand.New(rand.NewSource(seed))}); err != nil {
			panic(err)
		}
	})
	k := core.NewKeyring(rand.New(rand.NewSource(7)))
	cache := hashkey.NewVerifyCache(0)
	keyring := timeOp(func() {
		seed++
		cfg := core.Config{Rand: rand.New(rand.NewSource(seed)), Keyring: k, Cache: cache}
		if _, err := core.NewSetup(d, cfg); err != nil {
			panic(err)
		}
	})
	fmt.Printf("{\"bench\":\"keyring_setup\",\"fresh_ns_op\":%.0f,\"keyring_ns_op\":%.0f,\"speedup\":%.1f}\n",
		fresh, keyring, fresh/keyring)
}

// reorgSweep is the BENCH_06 measurement: the chain-realism cost
// surface. Confirmation depth (2/4/8 ticks) is crossed with reorg rate
// (0/10/25% per record) on the reorg-depth scenario's load shape, plus
// the instant-finality baseline, and every point reports what realism
// costs: clearing rounds, last settle tick, and the revert count. Each
// line carries the digest hash — the runs are seeded scenarios, so the
// whole sweep is replay-stable and CI can diff two invocations.
func reorgSweep() error {
	run := func(depth vtime.Duration, rate float64) error {
		sc := scenario.Scenario{
			Name:         fmt.Sprintf("reorg-sweep-d%d-r%d", depth, int(100*rate)),
			Seed:         909,
			Offers:       48,
			Rate:         2000,
			Profile:      "poisson",
			ConfirmDepth: depth,
			ReorgRate:    rate,
		}
		res, err := scenario.Run(sc)
		if err != nil {
			return fmt.Errorf("reorg sweep depth %d rate %.2f: %w", depth, rate, err)
		}
		d := res.Digest
		fmt.Printf("{\"bench\":\"engine_reorg\",\"confirm_depth\":%d,\"reorg_rate\":%.2f,"+
			"\"reverts\":%d,\"clear_rounds\":%d,\"last_settle_tick\":%d,"+
			"\"swaps_finished\":%d,\"swaps_failed\":%d,\"conservation\":%q,\"hash\":%q}\n",
			depth, rate, d.Reverts, d.ClearRounds, d.LastSettleTick,
			d.SwapsFinished, d.SwapsFailed, d.Conservation, d.Hash())
		if n := len(res.Violations); n > 0 {
			return fmt.Errorf("reorg sweep depth %d rate %.2f: %d safety violations (first: %s)",
				depth, rate, n, res.Violations[0].Detail)
		}
		return nil
	}
	// Instant-finality baseline: the pre-commitment-model engine.
	if err := run(0, 0); err != nil {
		return err
	}
	for _, depth := range []vtime.Duration{2, 4, 8} {
		for _, rate := range []float64{0, 0.10, 0.25} {
			if err := run(depth, rate); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardSweep is the BENCH_05 measurement: the sharded clearing engine
// across a shard-count ladder (1/2/4/8) crossed with cross-shard traffic
// ratios (0/10/50%), on striped-parallel deterministic dispatch — the
// mode where shards are the dispatch stripes, so this is the sweep
// behind the "shards are the unit of multicore scaling" claim. The load
// is a fixed total ring budget (strong scaling: more shards, same work),
// generated against each point's own shard placement map; at 1 shard
// every ring is necessarily local, so the three ratio rows collapse to
// the same single-book baseline the speedups are measured against.
// Every run drives loadgen.Drive's full contract — drain, conservation
// audit over every shard ledger, zero failed swaps — and each point
// reports the best of `repeat` runs: throughput points measure
// capability, and on a shared box the max is the least noisy estimator
// of it.
func shardSweep(repeat, rings int) error {
	if repeat < 1 {
		repeat = 1
	}
	run := func(shards int, ratio float64) error {
		offers := 3 * rings
		var best *loadgen.Report
		for r := 0; r < repeat; r++ {
			scfg := shard.Config{
				Shards: shards,
				Engine: engine.Config{
					Workers:    8,
					Tick:       time.Millisecond,
					Delta:      vtime.Duration(20),
					ClearEvery: 2,
					MaxBatch:   4096,
					Seed:       int64(1000*shards) + int64(100*ratio) + int64(r),
					Parallel:   true,
					// Deterministic mode forgoes clear-ahead backpressure;
					// let the whole book go live so the sweep measures
					// clearing capacity, not the default live gate.
					MaxLive: offers + 64,
				},
			}
			rep, err := loadgen.RunShardedOpenLoad(scfg, loadgen.Config{
				Offers: offers,
				Rate:   2e4,
				Seed:   int64(1000*shards) + int64(100*ratio),
				// Shedding would make points at different shard counts
				// serve different books; overload here is deliberate.
				MaxPending: -1,
				Shards:     shards,
				CrossRatio: ratio,
			})
			if err != nil {
				return fmt.Errorf("shard sweep %d shards, cross %.0f%%: %w",
					shards, 100*ratio, err)
			}
			if best == nil || rep.SwapsPerSec > best.SwapsPerSec {
				best = &rep
			}
		}
		body, err := json.Marshal(best)
		if err != nil {
			return err
		}
		fmt.Printf("{\"bench\":\"engine_sharded\",\"mode\":\"parallel-det\",\"shards\":%d,\"cross_ratio\":%.2f,\"rings\":%d,\"report\":%s}\n",
			shards, ratio, rings, body)
		return nil
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, ratio := range []float64{0, 0.1, 0.5} {
			if err := run(shards, ratio); err != nil {
				return err
			}
		}
	}
	return nil
}

// econSweep is the BENCH_07 measurement: the griefing-cost surface
// across coalition size × formation rate, for both in-swap coalition
// strategies, over 5-party rings (so every size up to 4 leaves at least
// one conforming victim). Each point is a deterministic scenario run —
// the numbers are tick-domain integrals, replayable byte-for-byte from
// the seed — reporting what the coalition cost conforming parties
// (griefing cost), what it staked itself (deviant lock), and the ratio
// (griefing factor: token-ticks of honest lockup per token-tick of
// adversarial stake). The leading rate-0 baseline pins the empty
// coalition at exactly zero griefing cost.
func econSweep() error {
	run := func(strategy string, size int, rate float64) error {
		sc := scenario.Scenario{
			Name:    fmt.Sprintf("econ-sweep-%s-k%d-r%d", strategy, size, int(100*rate)),
			Seed:    1414,
			Offers:  60,
			Rate:    2000,
			Profile: "poisson",
			RingMin: 5,
			RingMax: 5,
		}
		if rate > 0 {
			sc.Coalitions = []scenario.Coalition{{Strategy: strategy, Rate: rate, Size: size}}
		}
		res, err := scenario.Run(sc)
		if err != nil {
			return fmt.Errorf("econ sweep %s k=%d rate %.2f: %w", strategy, size, rate, err)
		}
		d := res.Digest
		var cost, dlock, clock, gain uint64
		var griefed int
		var factor float64
		var margin int64
		if e := d.Economics; e != nil {
			cost, dlock, clock = e.GriefingCostTokenTicks, e.DeviantLockTokenTicks, e.ConformingLockTokenTicks
			griefed, factor = e.GriefedSwaps, e.GriefingFactor
			margin, gain = e.BriberySafetyMargin, e.BestCoalitionGain
		}
		fmt.Printf("{\"bench\":\"engine_econ\",\"strategy\":%q,\"size\":%d,\"rate\":%.2f,"+
			"\"griefing_cost_token_ticks\":%d,\"griefed_swaps\":%d,\"griefing_factor\":%.4f,"+
			"\"conforming_lock_token_ticks\":%d,\"deviant_lock_token_ticks\":%d,"+
			"\"bribery_safety_margin\":%d,\"best_coalition_gain\":%d,"+
			"\"swaps_finished\":%d,\"last_settle_tick\":%d,\"conservation\":%q,\"hash\":%q}\n",
			strategy, size, rate, cost, griefed, factor, clock, dlock, margin, gain,
			d.SwapsFinished, d.LastSettleTick, d.Conservation, d.Hash())
		if rate == 0 && cost != 0 {
			return fmt.Errorf("econ sweep baseline: empty coalition reported griefing cost %d", cost)
		}
		if n := len(res.Violations); n > 0 {
			return fmt.Errorf("econ sweep %s k=%d rate %.2f: %d safety violations (first: %s)",
				strategy, size, rate, n, res.Violations[0].Detail)
		}
		return nil
	}
	// Empty-coalition baseline: all the capital, none of the griefing.
	if err := run("none", 0, 0); err != nil {
		return err
	}
	for _, strategy := range []string{"punishment", "cartel"} {
		for _, size := range []int{2, 3, 4} {
			for _, rate := range []float64{0.25, 0.5, 1.0} {
				if err := run(strategy, size, rate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// benchJSON emits the full older trajectory point: micro-benchmarks plus
// the engine sweep on real and virtual time and the adaptive-Δ pair, one
// JSON object per line.
func benchJSON() error {
	for _, hops := range []int{0, 4, 12} {
		if err := hashkeyMicro(hops); err != nil {
			return err
		}
	}
	keyringMicro()
	if err := engineSweep(false, false); err != nil {
		return err
	}
	if err := engineSweep(true, false); err != nil {
		return err
	}
	return adaptivePair()
}

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	engineJSON := flag.Bool("engine-json", false, "emit engine throughput sweep as JSON and exit")
	fullBenchJSON := flag.Bool("bench-json", false, "emit micro-benchmarks plus engine sweeps (real and virtual time) as JSON and exit")
	openLoopJSON := flag.Bool("openloop-json", false, "emit the open-loop trajectory point (latency vs offered load, fixed vs adaptive Δ) as JSON and exit")
	vtimeFlag := flag.Bool("vtime", false, "run the -engine-json sweep on virtual time (striped over the workers)")
	adaptiveFlag := flag.Bool("adaptive-delta", false, "enable the observed-latency adaptive-Δ controller in the -engine-json sweep")
	arrivalRate := flag.Float64("arrival-rate", 0, "open-loop intake: average offered load in offers/sec (0 = closed-loop, book pre-loaded)")
	profileFlag := flag.String("profile", "poisson", "arrival process for -arrival-rate: constant, poisson, burst[:n], ramp[:from:to]")
	scenarioFlag := flag.String("scenario", "", "run a deterministic adversarial scenario by name ('all' = built-in suite) and emit replay-stable digest JSON")
	scenarioSeed := flag.Int64("scenario-seed", 0, "seed offset applied to every -scenario run (same offset ⇒ byte-identical output)")
	scenarioParallel := flag.Bool("scenario-parallel", false, "run -scenario on the striped-parallel dispatcher (digests must stay byte-identical; CI diffs serial vs parallel output)")
	scenarioShards := flag.Int("scenario-shards", 0, "run -scenario on a sharded engine with this many shards (0 = the scenario's own shard count; digests of shard-local scenarios must stay byte-identical to 1-shard runs — CI diffs them)")
	reorgJSON := flag.Bool("reorg-json", false, "emit the BENCH_06 chain-realism sweep (confirmation depth 2/4/8 × reorg rate 0/10/25% + instant baseline) as JSON and exit")
	shardJSON := flag.Bool("shard-json", false, "emit the BENCH_05 sharded sweep (1/2/4/8 shards × cross-shard ratio 0/10/50%, striped-parallel dispatch) as JSON and exit")
	shardRepeat := flag.Int("shard-repeat", 3, "runs per -shard-json point (best-of)")
	shardRings := flag.Int("shard-rings", 192, "total rings at every -shard-json point (fixed across shard counts: strong scaling)")
	econJSON := flag.Bool("econ-json", false, "emit the BENCH_07 griefing-cost surface (coalition strategy × size × rate, plus the empty-coalition baseline) as JSON and exit")
	flag.Parse()

	if *econJSON {
		if err := econSweep(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *shardJSON {
		if err := shardSweep(*shardRepeat, *shardRings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *reorgJSON {
		if err := reorgSweep(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *scenarioFlag != "" {
		if err := runScenarios(*scenarioFlag, *scenarioSeed, *scenarioParallel, *scenarioShards); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *arrivalRate > 0 && (*fullBenchJSON || *openLoopJSON) {
		fmt.Fprintln(os.Stderr, "-arrival-rate configures the -engine-json sweep; -bench-json and -openloop-json fix their own loads")
		os.Exit(2)
	}
	// -arrival-rate implies the engine sweep: silently falling through to
	// the closed-loop experiment tables would measure the wrong thing.
	if *engineJSON || *fullBenchJSON || *openLoopJSON || *arrivalRate > 0 {
		var err error
		switch {
		case *openLoopJSON:
			err = openLoopTrajectory()
		case *fullBenchJSON:
			err = benchJSON()
		case *arrivalRate > 0:
			var p loadgen.Process
			if p, err = loadgen.ParseProfile(*profileFlag); err == nil {
				err = openLoopSweep(*arrivalRate, p, *vtimeFlag, *adaptiveFlag)
			}
		default:
			err = engineSweep(*vtimeFlag, *adaptiveFlag)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	failed := 0
	for _, e := range expt.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(tbl.Render())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
