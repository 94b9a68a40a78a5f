// Package scenario is the deterministic scenario harness for the
// clearing engine: a small DSL that composes an open-loop arrival
// profile (internal/engine/loadgen) with per-party deviation strategies
// (internal/adversary) injected at configurable rates, runs the whole
// thing on the engine's deterministic scheduler mode, and checks the
// paper's safety invariant afterwards.
//
// Herlihy's Theorem 4.9 quantifies over conforming parties under
// arbitrary deviation, but a load harness that only ever drives
// fully-conforming swarms witnesses none of it. A Scenario turns "40%
// Poisson load with 10% silent leaders and 5% crash faults" into a
// one-struct experiment whose every run asserts: no conforming party
// ends Underwater, and the ledgers conserve every minted asset.
//
// Replayability is the second half of the contract. A scenario run is a
// pure function of its seed: the engine runs in Deterministic mode
// (a one-worker virtual scheduler, clearing rounds at fixed ticks, swap
// setup pinned inside the clearing tick, synchronous deliveries), so
// the same Scenario value produces a byte-identical Digest — intake
// ticks, clearing rounds, Δ trajectory, settle order, outcome counts —
// on every replay, on any machine. Every future performance PR can
// therefore be checked against a seeded adversarial corpus instead of a
// clean-room load.
package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Deviation injects one strategy from the taxonomy (see Strategies) at
// a per-party rate: each party of each cleared swap independently draws
// against the cumulative rates of the scenario's deviation list.
type Deviation struct {
	// Strategy names a registered deviation (Strategies lists them).
	Strategy string `json:"strategy"`
	// Rate is the per-party injection probability in [0, 1].
	Rate float64 `json:"rate"`
}

// Scenario is one seed-replayable experiment: an arrival profile, a
// deviation mix, and the engine knobs that matter to the schedule.
type Scenario struct {
	// Name labels the scenario in digests and reports.
	Name string `json:"name"`
	// Seed drives everything: arrivals, ring sizes, swap keys, deviation
	// draws. Same Scenario value ⇒ byte-identical Digest.
	Seed int64 `json:"seed"`

	// Offers is the approximate open-loop offer budget (rings are always
	// completed; see loadgen.Config.Offers).
	Offers int `json:"offers"`
	// Rate is the average offered load in offers per second of scheduler
	// time.
	Rate float64 `json:"rate"`
	// Profile is the arrival process: "constant", "poisson", "burst[:n]",
	// or "ramp[:from:to]" (default "poisson").
	Profile string `json:"profile"`
	// RingMin and RingMax bound generated barter-ring sizes (default 3/3).
	RingMin int `json:"ring_min,omitempty"`
	RingMax int `json:"ring_max,omitempty"`
	// PartyPool reuses a fixed pool of ring-group identities (0 mints
	// fresh parties per ring).
	PartyPool int `json:"party_pool,omitempty"`
	// MaxPending is the bounded-intake shed threshold (0 = loadgen
	// default, negative disables).
	MaxPending int `json:"max_pending,omitempty"`

	// Workers is the engine's Workers (default 8): the dispatch helpers
	// under Parallel, and the MaxLive default.
	Workers int `json:"workers,omitempty"`
	// Parallel runs the deterministic schedule on a dispatcher of Workers
	// workers (engine.Config.Parallel) instead of one: the same dispatch
	// path, with min(Workers, GOMAXPROCS) − 1 helpers rather than none.
	// It is an execution knob, not a schedule knob: the digest must be
	// byte-identical either way, which is exactly what the determinism
	// suite asserts — so it is deliberately excluded from the scenario's
	// JSON identity.
	Parallel bool `json:"-"`
	// Delta is the per-swap Δ in ticks (default core.DefaultDelta).
	Delta vtime.Duration `json:"delta,omitempty"`
	// ClearEvery is the clearing cadence in ticks (default 2).
	ClearEvery vtime.Duration `json:"clear_every,omitempty"`

	// Deviations is the adversarial mix injected into the stream.
	Deviations []Deviation `json:"deviations,omitempty"`

	// Coalitions injects correlated adversarial groups: one draw per
	// cleared swap converts a contiguous block of its parties into a
	// coordinated cohort (cartel, punishment), or floods the intake from
	// a reused identity pool (flood). See the Coalition type.
	Coalitions []Coalition `json:"coalitions,omitempty"`
	// FairShed switches bounded intake from the global MaxPending rule to
	// per-party fair shedding (loadgen.Config.FairShed): at the
	// threshold, only parties at or past their share of the book shed —
	// the policy that keeps a flooding coalition's shed rate above the
	// organic parties'.
	FairShed bool `json:"fair_shed,omitempty"`

	// ConfirmDepth, when positive, runs every asset chain under a
	// confirmation-depth commitment model (engine.CommitmentConfig): a
	// record is final only ConfirmDepth ticks after it lands, and the
	// timelock ladder stretches to match. ReorgRate on top reverts each
	// record with that seeded probability before it finalizes. Both are
	// part of the scenario's identity. The "reorg@K" pseudo-strategy in
	// Deviations is sugar for the same knobs: its K is the depth, its
	// Rate the reorg rate.
	ConfirmDepth vtime.Duration `json:"confirm_depth,omitempty"`
	ReorgRate    float64        `json:"reorg_rate,omitempty"`

	// Shards, when positive, runs the scenario sharded: load generation
	// places rings into per-shard chain pools (engine.Map.Pools) and
	// execution runs an engine of this many shards (plus a cross-shard
	// coordinator when more than one). It is part of the scenario's identity —
	// generation depends on it — but the EXECUTION shard count can be
	// overridden with ExecShards, and for a CrossRatio-0 stream the
	// digest must be byte-identical whatever the execution shard count
	// (the property TestReplayLadder's one-shard rung checks).
	Shards int `json:"shards,omitempty"`
	// CrossRatio is the fraction of generated rings that span two shards'
	// chain pools — the cross-shard escalation workload (0 keeps every
	// ring shard-local).
	CrossRatio float64 `json:"cross_ratio,omitempty"`
	// ExecShards overrides the execution shard count (generation keeps
	// using Shards). Like Parallel it is an execution knob excluded from
	// the scenario's JSON identity: the digest must not depend on it.
	ExecShards int `json:"-"`

	// CrashTick, when positive, turns the run into a crash-recovery
	// experiment: the engine runs with a durable write-ahead log, is
	// killed at this virtual tick (Engine.Kill — intake and clearing
	// stop, nothing drains), and a second engine is recovered from the
	// log with the kill tick as the replay cut. The digest then covers
	// the whole two-life run — recovered orders, resumed swaps, refunds —
	// and must still be a pure function of the seed.
	CrashTick vtime.Ticks `json:"crash_tick,omitempty"`

	// MaxClearRounds and MaxSettleTick are replay budgets pinned per
	// scenario: the run must finish within this many live clearing rounds
	// and settle its last order by this tick. Exceeding either is a
	// Violation (and therefore a digest change) — a scheduling regression
	// that slows clearing or stretches settles fails the suite even when
	// every safety property still holds. Zero disables the check.
	MaxClearRounds int         `json:"max_clear_rounds,omitempty"`
	MaxSettleTick  vtime.Ticks `json:"max_settle_tick,omitempty"`
	// MaxGriefingCost pins the run's griefing-cost ceiling in token-ticks
	// (metrics.EconomicsReport): a scheduling or timelock regression that
	// makes coalitions strictly more expensive for conforming parties is
	// a Violation even when safety holds. Zero disables the check.
	MaxGriefingCost uint64 `json:"max_griefing_cost,omitempty"`
}

// Violation is one failed safety check.
type Violation struct {
	// Order is the violating order (0 for run-level violations).
	Order engine.OrderID `json:"order,omitempty"`
	Party string         `json:"party,omitempty"`
	Swap  string         `json:"swap,omitempty"`
	// Detail says what went wrong.
	Detail string `json:"detail"`
}

// Result is a finished scenario run.
type Result struct {
	// Digest is the canonical replay-stable summary; two runs of the same
	// Scenario must produce byte-identical Digest.JSON().
	Digest Digest
	// Report is the engine's full service-level metrics (wall-clock
	// fields included — not replay-stable, excluded from the digest).
	Report metrics.Throughput
	// Load is the open-loop generator's intake accounting.
	Load loadgen.Stats
	// Violations lists every failed safety check (empty on a good run).
	Violations []Violation
	// Dispatch is what the run's scheduler did with its batches (of a crash
	// run, the recovered life's). It says where the work ran, which is the
	// box's business: not in the digest.
	Dispatch sched.Stats
	// Signing splits the run's signatures by where they ran, presigned on
	// a spare core or inline — the box's business too: not in the digest.
	Signing hashkey.SignStats
	// Recovery reports the kill-and-recover step of a CrashTick run
	// (nil otherwise). Wall-clock fields are not replay-stable; the
	// digest carries only its tick/count facts.
	Recovery *durable.Recovery
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Name == "" {
		sc.Name = "scenario"
	}
	if sc.Profile == "" {
		sc.Profile = "poisson"
	}
	if sc.Workers <= 0 {
		sc.Workers = 8
	}
	if sc.Delta <= 0 {
		sc.Delta = core.DefaultDelta
	}
	if sc.ClearEvery <= 0 {
		sc.ClearEvery = 2
	}
	return sc
}

// validate checks the scenario's shape and strategy names.
func (sc Scenario) validate() error {
	if sc.Offers <= 0 {
		return fmt.Errorf("scenario %q: Offers must be positive", sc.Name)
	}
	if sc.Rate <= 0 {
		return fmt.Errorf("scenario %q: Rate must be positive", sc.Name)
	}
	total := 0.0
	for _, d := range sc.Deviations {
		if strings.HasPrefix(d.Strategy, "reorg@") {
			// The reorg pseudo-strategy deviates the CHAIN, not a party:
			// its rate is per-record, so it stays out of the per-party
			// probability ladder below.
			if k, ok := parseReorgStrategy(d.Strategy); !ok || k < 2 {
				return fmt.Errorf("scenario %q: bad strategy %q (want reorg@K with depth K ≥ 2)",
					sc.Name, d.Strategy)
			}
			if d.Rate < 0 || d.Rate > 1 {
				return fmt.Errorf("scenario %q: strategy %s rate %v outside [0,1]",
					sc.Name, d.Strategy, d.Rate)
			}
			continue
		}
		if _, ok := strategies[d.Strategy]; !ok {
			return fmt.Errorf("scenario %q: unknown strategy %q (want one of %v)",
				sc.Name, d.Strategy, Strategies())
		}
		if d.Rate < 0 || d.Rate > 1 {
			return fmt.Errorf("scenario %q: strategy %s rate %v outside [0,1]",
				sc.Name, d.Strategy, d.Rate)
		}
		total += d.Rate
	}
	if total > 1 {
		return fmt.Errorf("scenario %q: deviation rates sum to %v > 1", sc.Name, total)
	}
	if err := sc.validateCoalitions(); err != nil {
		return err
	}
	if sc.ReorgRate < 0 || sc.ReorgRate > 1 {
		return fmt.Errorf("scenario %q: ReorgRate %v outside [0,1]", sc.Name, sc.ReorgRate)
	}
	if sc.ReorgRate > 0 && sc.commitment().ConfirmDepth < 2 {
		return fmt.Errorf("scenario %q: ReorgRate needs ConfirmDepth ≥ 2", sc.Name)
	}
	return nil
}

// parseReorgStrategy recognizes the "reorg@K" pseudo-strategy and
// extracts its confirmation depth.
func parseReorgStrategy(name string) (vtime.Duration, bool) {
	rest, ok := strings.CutPrefix(name, "reorg@")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k <= 0 {
		return 0, false
	}
	return vtime.Duration(k), true
}

// commitment folds the scenario's chain-realism knobs — the explicit
// ConfirmDepth/ReorgRate fields, overridden by a "reorg@K" deviation
// entry — into the engine's commitment configuration.
func (sc Scenario) commitment() engine.CommitmentConfig {
	cc := engine.CommitmentConfig{
		ConfirmDepth: sc.ConfirmDepth,
		ReorgRate:    sc.ReorgRate,
		Seed:         sc.Seed,
	}
	for _, d := range sc.Deviations {
		if k, ok := parseReorgStrategy(d.Strategy); ok {
			cc.ConfirmDepth = k
			cc.ReorgRate = d.Rate
		}
	}
	return cc
}

// stranding reports whether the mix contains a strategy whose deviants
// may legitimately leave escrow unclaimed forever.
func (sc Scenario) strandingMix() bool {
	// A reorg cascade can push a claim's re-apply past its timelock and
	// drop it — the mempool loses the transaction for good — stranding
	// the escrow exactly the way a no-claim deviant does, so reorg runs
	// are audited for ledger integrity rather than strict conservation.
	if sc.commitment().ReorgRate > 0 {
		return true
	}
	for _, d := range sc.Deviations {
		if d.Rate > 0 && stranding[d.Strategy] {
			return true
		}
	}
	for _, c := range sc.Coalitions {
		// A cartel withholds random action categories — claims and refunds
		// included — and may crash mid-swap, so its escrow can strand.
		// Punishment never escrows and flooders play conforming protocol.
		if c.Strategy == "cartel" && c.Rate > 0 {
			return true
		}
	}
	return false
}

// factory compiles the deviation mix into the engine's behavior hook: a
// pure function of the setup — every draw comes from the swap's own
// stream, derived from the scenario seed and the swap's tag, never from
// shared state — which is what lets the engine call it on the clearing
// path and still replay byte-identically, and what keeps one swap's draws
// independent of every other swap's.
//
// Coalitions are drawn first and as a GROUP: one uniform draw per swap
// against the coalition ladder decides whether the whole cohort forms,
// before any party flips its independent deviation coin. Coalition
// members (and flooder identities) are then excluded from the
// independent ladder — a party belongs to at most one adversary.
func (sc Scenario) factory() engine.BehaviorFactory {
	devs := make([]Deviation, 0, len(sc.Deviations))
	for _, d := range sc.Deviations {
		if _, ok := parseReorgStrategy(d.Strategy); ok {
			// Chain-level, not party-level: handled by commitment().
			continue
		}
		devs = append(devs, d)
	}
	cos := sc.swapCoalitions()
	_, hasFlood := sc.floodCoalition()
	if len(devs) == 0 && len(cos) == 0 && !hasFlood {
		return nil
	}
	return func(setup *core.Setup, _ int64) engine.SwapBehaviors {
		spec := setup.Spec
		stream := core.Derive(sc.Seed, core.DomainBehaviors, spec.Tag)
		rng := rand.New(&stream)
		var sb engine.SwapBehaviors
		claimed := make(map[digraph.Vertex]bool)
		if hasFlood {
			tagFloodParties(setup, &sb, claimed)
		}
		// Cartel/punishment draws cover ORGANIC swaps only: a flood ring
		// is already wholly coalition traffic, and an in-swap coalition
		// among flooders would grief nobody (griefing cost is conforming
		// lock, of which an all-coalition swap has none).
		if len(cos) > 0 && len(claimed) == 0 {
			u := rng.Float64()
			acc := 0.0
			for _, c := range cos {
				acc += c.Rate
				if u >= acc {
					continue
				}
				applyCoalition(c, setup, rng, &sb, claimed)
				break
			}
		}
		for v := 0; v < spec.D.NumVertices(); v++ {
			if claimed[digraph.Vertex(v)] {
				continue
			}
			u := rng.Float64()
			acc := 0.0
			for _, d := range devs {
				acc += d.Rate
				if u >= acc {
					continue
				}
				if b, ok := strategies[d.Strategy](rng, spec, digraph.Vertex(v)); ok {
					if sb.Behaviors == nil {
						sb.Behaviors = make(map[digraph.Vertex]core.Behavior)
						sb.Deviants = make(map[digraph.Vertex]string)
					}
					sb.Behaviors[digraph.Vertex(v)] = b
					sb.Deviants[digraph.Vertex(v)] = d.Strategy
				}
				break
			}
		}
		return sb
	}
}

// engineConfig is the scenario's engine shape — built once per run and
// shared by the normal path and both lives of a crash run, so a recovered
// engine replays under exactly the knobs the original ran with.
func (sc Scenario) engineConfig() engine.Config {
	cfg := engine.Config{
		Workers:       sc.Workers,
		Tick:          time.Millisecond,
		Delta:         sc.Delta,
		ClearEvery:    sc.ClearEvery,
		Seed:          sc.Seed,
		Deterministic: true,
		Parallel:      sc.Parallel,
		Behaviors:     sc.factory(),
		Commitment:    sc.commitment(),
		Shards:        sc.execShards(),
	}
	if sc.Shards > 0 {
		// Neutralize the virtual live-run gate: each engine's gate reads
		// its OWN live count, so a binding gate would fire at different
		// rounds under different shard counts. A ceiling above the whole
		// book makes the gate a no-op in every execution shape, keeping
		// the digest a function of the stream alone.
		cfg.MaxLive = sc.Offers + 64
	}
	return cfg
}

// execShards is the execution shard count: the ExecShards override, else
// the scenario's own Shards.
func (sc Scenario) execShards() int {
	if sc.ExecShards > 0 {
		return sc.ExecShards
	}
	return sc.Shards
}

// loadConfig is the scenario's open-loop generator shape.
func (sc Scenario) loadConfig(process loadgen.Process) loadgen.Config {
	cfg := loadgen.Config{
		Offers:     sc.Offers,
		RingMin:    sc.RingMin,
		RingMax:    sc.RingMax,
		Rate:       sc.Rate,
		Process:    process,
		PartyPool:  sc.PartyPool,
		MaxPending: sc.MaxPending,
		Seed:       sc.Seed,
		FairShed:   sc.FairShed,
		// Generation placement follows the scenario's OWN shard count,
		// never the ExecShards override: the stream is part of the
		// scenario's identity, the execution shape is not.
		Shards:     sc.Shards,
		CrossRatio: sc.CrossRatio,
	}
	if fc, ok := sc.floodCoalition(); ok {
		factor := floodFactor(fc.Rate)
		cfg.FloodFactor = factor
		cfg.FloodParties = fc.Size
		// Flood rings ride ON TOP of the organic budget, so the offered
		// rate scales with them: the organic inter-arrival pace — the
		// schedule the scenario's non-flood twin would run — is preserved
		// while the intake sees (1+factor)× the traffic.
		cfg.Rate *= float64(1 + factor)
	}
	return cfg
}

// Run executes the scenario once and returns its result. The error is
// for harness failures (bad scenario, engine refusing to run); safety
// findings go into Result.Violations and the digest, so callers can
// diff replays even when the invariant broke.
func Run(sc Scenario) (*Result, error) { return run(sc, 0) }

// run is Run with the engine's protocol choice pinned: zero leaves it to
// the engine (per cleared component), core.KindGeneral forces hashkeys on
// every swap — the tests' fixture for holding both protocols to the same
// assertions.
func run(sc Scenario, kind core.Kind) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	process, err := loadgen.ParseProfile(sc.Profile)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	cfg := sc.engineConfig()
	cfg.Kind = kind
	if sc.CrashTick > 0 {
		return runCrash(sc, cfg, process)
	}

	e := engine.New(cfg)
	if err := e.Start(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	stats, err := loadgen.Run(ctx, e, sc.loadConfig(process))
	if err != nil {
		e.Stop(ctx)
		return nil, fmt.Errorf("scenario %q: load: %w", sc.Name, err)
	}
	if err := e.Stop(ctx); err != nil {
		return nil, fmt.Errorf("scenario %q: drain: %w", sc.Name, err)
	}

	orders := e.Orders()
	res := &Result{
		Report:     e.Report(),
		Load:       stats,
		Violations: checkSafety(orders),
		Dispatch:   e.Scheduler().Stats(),
		Signing:    e.Keyring().SignStats(),
	}

	// Conservation audit: the full invariant (no stranded escrow) when
	// every deviant eventually walks away from its contracts, ledger
	// integrity plus minted-asset conservation when the mix can strand
	// escrow by design.
	conservation := "ok"
	audit := e.VerifyConservation
	if sc.strandingMix() {
		audit = e.VerifyLedgerIntegrity
	}
	if err := audit(); err != nil {
		conservation = err.Error()
		res.Violations = append(res.Violations, Violation{Detail: "conservation: " + err.Error()})
	}

	rounds := e.ClearRounds()
	res.Violations = append(res.Violations, sc.budgetViolations(rounds, orders, res.Report)...)
	res.Violations = append(res.Violations, sc.fairShedViolations(stats)...)
	res.Digest = buildDigest(sc, stats, res.Report, orders, res.Violations, conservation, rounds, nil)
	return res, nil
}

// budgetViolations applies the scenario's pinned replay budgets.
func (sc Scenario) budgetViolations(rounds int, orders []engine.OrderSnapshot, rep metrics.Throughput) []Violation {
	var out []Violation
	if sc.MaxClearRounds > 0 && rounds > sc.MaxClearRounds {
		out = append(out, Violation{Detail: fmt.Sprintf(
			"budget: %d live clearing rounds > pinned max %d", rounds, sc.MaxClearRounds)})
	}
	if last := lastSettleTick(orders); sc.MaxSettleTick > 0 && last > sc.MaxSettleTick {
		out = append(out, Violation{Detail: fmt.Sprintf(
			"budget: last settle at tick %d > pinned max %d", last, sc.MaxSettleTick)})
	}
	if sc.MaxGriefingCost > 0 {
		var cost uint64
		if e := rep.Economics; e != nil {
			cost = e.GriefingCostTokenTicks
		}
		if cost > sc.MaxGriefingCost {
			out = append(out, Violation{Detail: fmt.Sprintf(
				"budget: griefing cost %d token-ticks > pinned max %d", cost, sc.MaxGriefingCost)})
		}
	}
	return out
}

// fairShedViolations audits the fair-shedding contract on a flooded run:
// with per-party fair shedding on and a flooding coalition in the
// stream, the organic (conforming) parties' shed rate must stay strictly
// below the coalition's — the policy exists precisely so a flood starves
// itself, not its victims. No-op unless both knobs are present and the
// run actually shed.
func (sc Scenario) fairShedViolations(stats loadgen.Stats) []Violation {
	if !sc.FairShed {
		return nil
	}
	if _, ok := sc.floodCoalition(); !ok {
		return nil
	}
	var org, flood loadgen.PartyStats
	for party, ps := range stats.Parties {
		if strings.HasPrefix(party, engine.FloodPartyPrefix) {
			flood.Offered += ps.Offered
			flood.Shed += ps.Shed
		} else {
			org.Offered += ps.Offered
			org.Shed += ps.Shed
		}
	}
	if org.Shed+flood.Shed == 0 || org.Offered == 0 || flood.Offered == 0 {
		return nil
	}
	orgRate := float64(org.Shed) / float64(org.Offered)
	floodRate := float64(flood.Shed) / float64(flood.Offered)
	if orgRate >= floodRate {
		return []Violation{{Detail: fmt.Sprintf(
			"fair-shed: conforming shed rate %.4f (%d/%d) not below coalition's %.4f (%d/%d)",
			orgRate, org.Shed, org.Offered, floodRate, flood.Shed, flood.Offered)}}
	}
	return nil
}

// lastSettleTick is the latest settle tick across the run's orders.
func lastSettleTick(orders []engine.OrderSnapshot) vtime.Ticks {
	var last vtime.Ticks
	for _, o := range orders {
		if o.Status == engine.StatusSettled && o.SettledTick > last {
			last = o.SettledTick
		}
	}
	return last
}

// checkSafety applies the paper's uniformity invariant to every settled
// order: a party that ran the conforming protocol may end with any
// acceptable class (Deal, NoDeal, Discount, FreeRide) but never
// Underwater — only deviants can sink. Swaps that failed outright
// (execution errors) are violations too: the harness promises every
// accepted order a protocol-level outcome.
func checkSafety(orders []engine.OrderSnapshot) []Violation {
	var out []Violation
	for _, o := range orders {
		switch o.Status {
		case engine.StatusSettled:
			if o.Deviant == "" && !o.Class.Acceptable() {
				out = append(out, Violation{
					Order: o.ID, Party: o.Party, Swap: o.Swap,
					Detail: fmt.Sprintf("conforming party ended %s", o.Class),
				})
			}
		case engine.StatusRejected:
			if strings.HasPrefix(o.Reason, "execution:") {
				out = append(out, Violation{
					Order: o.ID, Party: o.Party, Swap: o.Swap,
					Detail: "swap failed outright: " + o.Reason,
				})
			}
		}
	}
	return out
}
