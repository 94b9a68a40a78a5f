// Package atomicswap is a from-scratch Go implementation of the atomic
// cross-chain swap protocol of Maurice Herlihy's "Atomic Cross-Chain
// Swaps" (PODC 2018).
//
// A swap is a strongly connected digraph whose vertexes are parties and
// whose arcs are proposed asset transfers on (mock) blockchains. Given a
// feedback vertex set of leaders, the protocol deploys hashed-timelock
// swap contracts along the arcs (Phase One) and propagates leader secrets
// against them as path-signed hashkeys (Phase Two), guaranteeing that if
// everyone conforms all transfers happen within 2·diam(D)·Δ, and that no
// conforming party ever ends up "Underwater" no matter what any coalition
// does.
//
// The package is a facade over the internal packages: build a digraph (or
// use a generator, or clear a set of market offers), create a Setup, run
// it under the deterministic discrete-event Runner, and inspect the
// Result. Adversarial behaviors let you reproduce every attack discussed
// in the paper.
//
//	d := atomicswap.ThreeWay()
//	setup, err := atomicswap.NewSetup(d, atomicswap.Config{})
//	if err != nil { ... }
//	res, err := atomicswap.NewRunner(setup).Run()
//	if err != nil { ... }
//	fmt.Println(res.Report.AllDeal()) // true
package atomicswap

import (
	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/audit"
	"github.com/go-atomicswap/atomicswap/internal/baseline"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/engine/scenario"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/pebble"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Graph model.
type (
	// Digraph is the swap digraph: parties as vertexes, proposed
	// transfers as arcs (multigraphs allowed, self-loops not).
	Digraph = digraph.Digraph
	// Vertex identifies a party in the digraph.
	Vertex = digraph.Vertex
	// Arc is one proposed transfer from Head to Tail.
	Arc = digraph.Arc
	// Path is a simple vertex path, as used by hashkeys.
	Path = digraph.Path
)

// Protocol configuration and execution.
type (
	// Spec is the public swap plan every party must agree on.
	Spec = core.Spec
	// Setup couples a Spec with the private key material a simulation
	// needs to play all parties.
	Setup = core.Setup
	// Config parameterizes NewSetup.
	Config = core.Config
	// Runner executes one swap deterministically, alone, under the paper's
	// worst-case timing: every notification exactly Δ after its chain event.
	Runner = conc.Runner
	// Result reports outcomes, timing, storage, and communication.
	Result = core.Result
	// Kind selects the protocol variant.
	Kind = core.Kind
	// Behavior is a party's protocol logic; Env is its world.
	Behavior = core.Behavior
	// Env is the interface through which behaviors act on chains.
	Env = core.Env
	// ArcAsset names the asset an arc transfers.
	ArcAsset = core.ArcAsset
	// Offer is a party's submission to the market-clearing service.
	Offer = core.Offer
	// ProposedTransfer is one asset an offer hands over.
	ProposedTransfer = core.ProposedTransfer
)

// Protocol variants.
const (
	// KindGeneral is the paper's general multi-leader hashkey protocol.
	KindGeneral = core.KindGeneral
	// KindSingleLeader is the Section 4.6 timeout-staircase special case.
	KindSingleLeader = core.KindSingleLeader
	// KindUniformTimeout is the broken equal-timeout baseline.
	KindUniformTimeout = core.KindUniformTimeout
)

// Outcome classification (Figure 3).
type (
	// Class is a payoff class for a party or coalition.
	Class = outcome.Class
	// OutcomeReport classifies every party of a finished run.
	OutcomeReport = outcome.Report
)

// Payoff classes.
const (
	// Underwater is the only class unacceptable to conforming parties.
	Underwater = outcome.Underwater
	// NoDeal is the status quo.
	NoDeal = outcome.NoDeal
	// Deal is the intended outcome.
	Deal = outcome.Deal
	// Discount means everything received, less than everything paid.
	Discount = outcome.Discount
	// FreeRide means something received, nothing paid.
	FreeRide = outcome.FreeRide
)

// Chain-level identifiers.
type (
	// PartyID identifies a protocol participant across all chains.
	PartyID = chain.PartyID
	// AssetID identifies an asset within its chain.
	AssetID = chain.AssetID
)

// Crypto material.
type (
	// Secret is a leader-generated hashlock preimage.
	Secret = hashkey.Secret
	// Lock is a SHA-256 hashlock.
	Lock = hashkey.Lock
	// Hashkey is the (secret, path, signature-chain) unlock token.
	Hashkey = hashkey.Hashkey
)

// Virtual time.
type (
	// Ticks is an instant of virtual time.
	Ticks = vtime.Ticks
	// Duration is a span of virtual time.
	Duration = vtime.Duration
)

// NewDigraph returns an empty swap digraph.
func NewDigraph() *Digraph { return digraph.New() }

// NewSetup builds and validates a swap setup over d; see core.Config for
// the defaults.
func NewSetup(d *Digraph, cfg Config) (*Setup, error) { return core.NewSetup(d, cfg) }

// NewRunner prepares a deterministic run of the setup.
func NewRunner(setup *Setup) *Runner { return conc.NewRunner(setup) }

// Clear combines market offers into a validated setup (Section 4.2).
func Clear(offers []Offer, cfg Config) (*Setup, error) { return core.Clear(offers, cfg) }

// VerifyPlan checks a published plan against one party's own offer.
func VerifyPlan(spec *Spec, offer Offer) error { return core.VerifyPlan(spec, offer) }

// NewConforming returns the paper's conforming behavior for the general
// protocol; NewConformingHTLC the single-leader variant's.
func NewConforming() Behavior { return core.NewConforming() }

// NewConformingHTLC returns the conforming behavior for the HTLC-based
// protocol variants.
func NewConformingHTLC() Behavior { return core.NewConformingHTLC() }

// ConformingFor returns the conforming behavior for the protocol variant
// the spec runs.
func ConformingFor(spec *Spec) Behavior { return core.ConformingFor(spec) }

// Graph generators for the paper's figures and standard families.
var (
	// ThreeWay is Figure 1: Alice -> Bob -> Carol -> Alice.
	ThreeWay = graphgen.ThreeWay
	// TwoLeaderTriangle is the complete 3-vertex digraph of Figures 6–8.
	TwoLeaderTriangle = graphgen.TwoLeaderTriangle
	// Cycle is the directed n-cycle.
	Cycle = graphgen.Cycle
	// BidirCycle is the n-cycle with arcs both ways.
	BidirCycle = graphgen.BidirCycle
	// Clique is the complete digraph on n vertexes.
	Clique = graphgen.Clique
	// Flower is k petal cycles sharing one center (single-leader family).
	Flower = graphgen.Flower
	// RandomStronglyConnected is a seeded random strongly connected digraph.
	RandomStronglyConnected = graphgen.RandomStronglyConnected
	// NotStronglyConnected is the Lemma 3.4 counterexample shape.
	NotStronglyConnected = graphgen.NotStronglyConnected
	// MultiArcPair is the parallel-arc two-party multigraph.
	MultiArcPair = graphgen.MultiArcPair
)

// Adversarial behaviors, for reproducing the paper's attack discussions.
var (
	// HaltAt wraps a behavior as a crash fault at a given tick.
	HaltAt = adversary.HaltAt
	// SilentLeader completes Phase One but never reveals (griefing DoS).
	SilentLeader = adversary.SilentLeader
	// WithholdPublications drops contract publications on given arcs.
	WithholdPublications = adversary.WithholdPublications
	// NoClaim never claims fully unlocked contracts.
	NoClaim = adversary.NoClaim
	// LastMomentRedeemer delays HTLC redeems to the final valid tick.
	LastMomentRedeemer = adversary.LastMomentRedeemer
	// LastMomentUnlocker delays hashkey unlocks to their deadlines.
	LastMomentUnlocker = adversary.LastMomentUnlocker
	// PrematureRevealer reveals before Phase One completes.
	PrematureRevealer = adversary.PrematureRevealer
	// EagerPublisher publishes leaving arcs before entering are covered.
	EagerPublisher = adversary.EagerPublisher
)

// A Spec also exposes the waits-for analysis of Theorem 4.12:
// Spec.WaitsFor(published) builds the current waits-for digraph and
// Spec.DeadlockCycle(published) detects permanent Phase One deadlock —
// pair it with Runner.PublishedArcs().

// Pebble games (Section 4.4), exposed for analysis.
var (
	// LazyPebble plays the Phase One deployment game.
	LazyPebble = pebble.Lazy
	// EagerPebble plays the Phase Two dissemination game.
	EagerPebble = pebble.Eager
)

// Sequential is the non-atomic plain-transfer baseline.
var Sequential = baseline.Sequential

// RunRecurrent chains multiple swap rounds (Section 5).
var RunRecurrent = conc.RunRecurrent

// Fault attribution (the Section 5 bonds/fault future-work extension):
// Audit examines the public ledgers of a finished run and names every
// party that failed to execute an enabled protocol transition.
type (
	// Fault attributes one protocol violation to one party.
	Fault = audit.Fault
	// FaultKind classifies an audited violation.
	FaultKind = audit.FaultKind
)

// Audit runs fault attribution over a finished run's chains.
func Audit(spec *Spec, res *Result) []Fault { return audit.Run(spec, res.Registry) }

// Settlement reports a bond redistribution computed from audit faults.
type Settlement = audit.Settlement

// Settle slashes faulty parties' bonds and redistributes them to the
// fault-free — the full bonds scheme Section 5 sketches.
func Settle(spec *Spec, faults []Fault, bond uint64) *Settlement {
	return audit.Settle(spec, faults, bond)
}

// Clearing engine: the long-running swap service. Submit offers from any
// goroutine; a clearing loop matches them into concurrent swaps over
// shared chains; Report() gives service-level throughput.
type (
	// Engine is the continuous-intake multi-swap clearing service.
	Engine = engine.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = engine.Config
	// OrderID identifies a submitted offer.
	OrderID = engine.OrderID
	// OrderStatus tracks an order through intake, clearing, execution.
	OrderStatus = engine.OrderStatus
	// OrderSnapshot is an order's caller-visible state.
	OrderSnapshot = engine.OrderSnapshot
	// Throughput is the engine's aggregate service report.
	Throughput = metrics.Throughput
)

// Order statuses.
const (
	// OrderPending awaits counterparties in the book.
	OrderPending = engine.StatusPending
	// OrderExecuting is matched into an in-flight swap.
	OrderExecuting = engine.StatusExecuting
	// OrderSettled finished; the snapshot carries the payoff class.
	OrderSettled = engine.StatusSettled
	// OrderRejected was refused; the snapshot carries the reason.
	OrderRejected = engine.StatusRejected
)

// NewEngine creates a clearing engine of cfg.Shards shards, one when 0
// (call Start before Submit).
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// Open-loop load generation: drive an engine from a configurable arrival
// process on its own scheduler (instead of pre-loading the book) and
// measure submit-to-settle latency percentiles under sustained intake.
type (
	// ArrivalProcess shapes open-loop inter-arrival gaps.
	ArrivalProcess = loadgen.Process
	// ConstantArrivals spaces arrivals exactly evenly.
	ConstantArrivals = loadgen.Constant
	// PoissonArrivals draws memoryless exponential gaps.
	PoissonArrivals = loadgen.Poisson
	// BurstArrivals clusters arrivals into synchronized spikes.
	BurstArrivals = loadgen.Burst
	// RampArrivals sweeps the rate linearly across the run.
	RampArrivals = loadgen.Ramp
	// OpenLoadConfig parameterizes one open-loop load.
	OpenLoadConfig = loadgen.Config
	// OpenLoadStats is the generator's intake accounting.
	OpenLoadStats = loadgen.Stats
	// OpenLoadReport couples the engine report with the load stats.
	OpenLoadReport = loadgen.Report
)

// RunOpenLoad streams one open-loop load through a fresh engine: offers
// arrive from the configured process at the configured average rate,
// the engine drains, conservation is verified, and the combined report
// (latency percentiles included) is returned.
func RunOpenLoad(ecfg EngineConfig, lcfg OpenLoadConfig) (OpenLoadReport, error) {
	return loadgen.RunOpenLoad(ecfg, lcfg)
}

// ParseArrivalProfile resolves "constant", "poisson", "burst[:n]", or
// "ramp[:from:to]" to an ArrivalProcess.
func ParseArrivalProfile(s string) (ArrivalProcess, error) { return loadgen.ParseProfile(s) }

// Deterministic scenario harness: seed-replayable adversarial
// experiments. A Scenario composes an open-loop arrival profile with
// per-party deviation strategies injected at configurable rates, runs
// on the engine's deterministic scheduler mode, checks the paper's
// safety invariant (no conforming party ends Underwater; ledgers
// conserve), and returns a canonical digest that is byte-identical
// across replays of the same seed.
type (
	// Scenario is one seed-replayable adversarial experiment.
	Scenario = scenario.Scenario
	// ScenarioDeviation injects one named strategy at a per-party rate.
	ScenarioDeviation = scenario.Deviation
	// ScenarioResult is a finished run: digest, report, violations.
	ScenarioResult = scenario.Result
	// ScenarioDigest is the canonical replay-stable run summary.
	ScenarioDigest = scenario.Digest
	// ScenarioViolation is one failed safety check.
	ScenarioViolation = scenario.Violation
)

// RunScenario executes one scenario deterministically.
func RunScenario(sc Scenario) (*ScenarioResult, error) { return scenario.Run(sc) }

// ScenarioSuite returns the built-in scenario corpus, seeds shifted by
// the offset.
func ScenarioSuite(seedOffset int64) []Scenario { return scenario.Suite(seedOffset) }

// ScenarioStrategies lists the deviation taxonomy's strategy names.
func ScenarioStrategies() []string { return scenario.Strategies() }

// ClearBatch partitions a batch of offers into disjoint swap setups plus
// the residual offers that cannot clear yet — the multi-swap
// generalization of Clear.
func ClearBatch(offers []Offer, base Config) ([]*Setup, []Offer, error) {
	return core.ClearBatch(offers, base)
}
