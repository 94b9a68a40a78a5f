// Package conc runs the swap protocol over shared, thread-safe mock chains
// with virtual ticks from a pluggable sched.Scheduler — many runs at once
// over one registry, which is what the clearing engine needs. The party
// logic is the same core.Behavior implementation the reference runner in
// core drives — the point of this runtime is demonstrating that the
// protocol engine is runtime-agnostic and race-free.
//
// How deliveries reach a party follows from the scheduler the run is
// handed; there is no option for it:
//
//   - sched.Real (the default): ticks map onto wall-clock time and timer
//     callbacks arrive on arbitrary goroutines, so each party is its own
//     mailbox goroutine and every delivery is handed to it. Runs are not
//     tick-deterministic (real scheduling jitter exists below the Δ
//     scale), so tests assert outcomes rather than traces. Pick a tick
//     duration comfortably above scheduler noise.
//   - *sched.Virtual: the scheduler already runs a stripe's events one at
//     a time in scheduling order, so a delivery simply executes inside its
//     scheduler event, on the dispatcher (or the run's stripe worker), at
//     exactly its scheduled tick. No party goroutines exist, and a run is
//     a pure function of what was scheduled.
package conc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// DefaultTick is the default wall duration of one virtual tick.
const DefaultTick = sched.DefaultTick

// Config parameterizes a concurrent run.
type Config struct {
	// Tick is the wall duration of one virtual tick (DefaultTick if 0),
	// used to build the default real-time scheduler. Ignored when
	// Scheduler is set.
	Tick time.Duration
	// ExtraDelta pads the run horizon beyond spec.Horizon(), in Δ (2 if 0).
	ExtraDelta int
	// Registry, when set, is a shared chain registry: assets already
	// registered on it are reused (their ownership is verified), and the
	// run subscribes to chain events under a unique key instead of
	// claiming the chains' only observer slot. Many runs may then execute
	// concurrently over the same chains — the clearing engine's mode.
	Registry *chain.Registry
	// Scheduler, when set, is a shared time source so concurrent runs
	// agree on virtual time: sched.NewReal for wall-clock execution (what
	// a standalone run builds by default from Tick), sched.NewVirtual for
	// event-driven time that advances as fast as callbacks drain. Its type
	// also decides the delivery shape (see the package comment). The spec's
	// Start must be in the scheduler's future (or use StartOffset).
	Scheduler sched.Scheduler
	// StartOffset, when positive, pins spec.Start to the scheduler's
	// current tick plus the offset, atomically with run setup. Under
	// virtual time this is the only safe way to pin a start (the clock
	// may advance between a caller's Now and Run); the engine uses it for
	// its 2Δ-plus-stagger start.
	StartOffset vtime.Duration
	// EarlyExit stops the run as soon as every arc has settled instead of
	// sleeping to the worst-case horizon. Outcomes are unaffected (a
	// settled arc is final); only trailing trace events — the OnSettled
	// fanout of the last transfers — may be trimmed. No grace period is
	// paid: teardown is immediate.
	EarlyExit bool
	// Cache, when set, replaces the spec's hashkey verification cache so
	// many concurrent runs share one (the clearing engine's mode: a
	// hashkey chain verified by one swap's contract never pays full
	// price again anywhere in the engine). Note this deliberately
	// rewires the caller's Spec — later runs of the same Setup keep the
	// shared cache, which is the desired behavior for engine-owned
	// setups (one per cleared swap).
	Cache *hashkey.VerifyCache
	// StripeKey, when nonzero on a *sched.Virtual, tags every scheduler
	// event of this run with the key. Under striped dispatch
	// (sched.NewVirtual with workers > 1) the run's events then serialize
	// among themselves in schedule order while distinct runs — distinct
	// swaps, in the engine — execute concurrently. Zero joins the shared
	// unkeyed stripe.
	StripeKey uint64
	// Log, when set, replaces the run's private trace log — the engine
	// passes one shared flight-recorder ring so per-swap log allocation
	// vanishes. Nil keeps a per-run log.
	Log *trace.Log
	// OnPhase, when set, observes the run's coarse phase transitions —
	// the durable engine's crash-recovery log hook. Each phase fires at
	// most once per run: "start" when the run is prepared, "escrow" when
	// the first of this swap's contracts is published, "reveal" when the
	// first secret leaves a party (unlock, redeem, or broadcast). The
	// callback runs on scheduler or chain-observer goroutines; it must be
	// cheap and must not call back into the run.
	OnPhase func(ev PhaseEvent)
	// OnHorizon, when set, fires exactly once when the run is virtually
	// over: inside the horizon event on the scheduler (so, under
	// deterministic dispatch, at a schedule-pure instant), or at teardown
	// for early-exiting runs whose horizon timer is cancelled. The
	// clearing engine uses it to count virtually-live runs — the
	// deterministic analogue of in-flight backpressure. Must be cheap and
	// must not call back into the run.
	OnHorizon func()
	// OnRevert, when set, observes commitment-model reverts touching this
	// run's contracts: a chain reorg rolled one of the swap's records
	// back. The engine logs these to the WAL and counts them. The callback
	// runs on chain-observer goroutines; it must be cheap and must not
	// call back into the run.
	OnRevert func(ev RevertEvent)
}

// RevertEvent is one reorged record of a run's contract (Config.OnRevert).
type RevertEvent struct {
	// ArcID is the swap arc whose contract the reverted record belongs to.
	ArcID int
	// Chain is the chain the reorg happened on.
	Chain string
	// Contract is the affected contract.
	Contract chain.ContractID
	// Kind is the kind of the record that was rolled back.
	Kind chain.NoteKind
	// At is the tick the revert was recorded at.
	At vtime.Ticks
}

// PhaseEvent is one coarse protocol phase transition (see Config.OnPhase).
type PhaseEvent struct {
	// Phase is "start", "escrow", or "reveal".
	Phase string
	// At is the virtual tick the transition was observed at.
	At vtime.Ticks
	// Deadline is the swap's max timelock — by when every conforming
	// party's assets are settled or refundable. Recovery measures its
	// remaining budget against this.
	Deadline vtime.Ticks
}

// EscrowSpan is one arc's capital-lock interval: the escrowed amount is
// unavailable to its owner from the tick the contract published until
// the arc resolved (claim or refund recorded final on chain). Spans are
// the integrand of the griefing-cost measure — amount × (To−From) in
// token-ticks — and, being tick-domain, are identical across replays of
// a deterministic run.
type EscrowSpan struct {
	// ArcID indexes spec.D / spec.Assets.
	ArcID int
	// From is the tick the arc's contract published (escrow locked).
	From vtime.Ticks
	// To is the tick the arc resolved; the run's horizon tick when it
	// never did (a stranded escrow stays locked to the bitter end).
	To vtime.Ticks
	// Resolved distinguishes a settled arc from a stranded one.
	Resolved bool
}

// Result reports a finished concurrent run.
type Result struct {
	Triggered map[int]bool
	Report    *outcome.Report
	Registry  *chain.Registry
	Log       *trace.Log
	// Escrows holds one span per arc whose contract actually published
	// (a withheld deployment locks nothing), ordered by arc ID.
	Escrows []EscrowSpan
	// SettleTick is the virtual tick at which the last arc resolved
	// (claim or refund recorded on chain). For runs where some arc never
	// resolved — a crashed party abandoning its own contract — it is the
	// run's horizon tick instead, the point at which the outcome became
	// final. Unlike wall-clock latencies, it is identical across replays
	// of a deterministic run.
	SettleTick vtime.Ticks
}

// Running is a prepared, in-flight concurrent run: the assets are
// verified, every party is live, and the protocol is playing out on the
// scheduler. Call Wait exactly once to block until the run finishes and
// collect the result. The Prepare/Wait split exists for the clearing
// engine on virtual time, where run setup must happen at a pinned tick
// (inside the clearing callback, under the scheduler hold) while the
// blocking wait stays on an executor worker.
type Running struct {
	r         *runner
	cfg       Config
	cancel    context.CancelFunc
	partyWG   *sync.WaitGroup
	horizonCh chan struct{}
	subKey    string
	shared    bool
	// horizonOnce guards cfg.OnHorizon: normally fired by the horizon
	// event itself, but an EarlyExit teardown cancels that timer, so Wait
	// fires it as a fallback.
	horizonOnce sync.Once
}

// fireHorizon runs cfg.OnHorizon at most once.
func (rn *Running) fireHorizon() {
	if rn.cfg.OnHorizon == nil {
		return
	}
	rn.horizonOnce.Do(rn.cfg.OnHorizon)
}

// Run executes the setup to its horizon and reports the result. Behaviors
// defaults to the conforming implementation per vertex; entries override.
func Run(setup *core.Setup, behaviors map[digraph.Vertex]core.Behavior, cfg Config) (*Result, error) {
	rn, err := Prepare(setup, behaviors, cfg)
	if err != nil {
		return nil, err
	}
	return rn.Wait(), nil
}

// Prepare sets a concurrent run up — registers or verifies assets,
// spawns the party goroutines a real-time scheduler needs, schedules the
// protocol start — and returns without waiting for it. Setup runs
// atomically under a scheduler hold, so under virtual time the protocol
// start is pinned relative to the scheduler's tick at the moment Prepare
// was called.
func Prepare(setup *core.Setup, behaviors map[digraph.Vertex]core.Behavior, cfg Config) (*Running, error) {
	if cfg.ExtraDelta <= 0 {
		cfg.ExtraDelta = 2
	}
	spec := setup.Spec
	if cfg.Cache != nil {
		spec.Cache = cfg.Cache
	}

	scheduler := cfg.Scheduler
	if scheduler == nil {
		scheduler = sched.NewReal(cfg.Tick)
	}
	log := cfg.Log
	if log == nil {
		log = &trace.Log{}
	}
	r := &runner{
		setup:   setup,
		spec:    spec,
		sched:   scheduler,
		stripe:  cfg.StripeKey,
		log:     log,
		arcs:    make([]arcState, spec.D.NumArcs()),
		done:    make(chan struct{}),
		cids:    make(map[chain.ContractID]int, spec.D.NumArcs()),
		onPhase: cfg.OnPhase,
	}
	// A virtual scheduler serializes each stripe's events itself: party
	// callbacks run directly inside them, and no mailbox goroutine exists.
	r.virtual, _ = scheduler.(*sched.Virtual)

	// Setup runs under a hold: under virtual time the clock must not jump
	// past the start while assets are registered and inits scheduled.
	release := scheduler.Hold()
	defer release() // no-op after the explicit release below
	if cfg.StartOffset > 0 {
		spec.SetStart(scheduler.Now().Add(cfg.StartOffset))
	}
	spec.Precompute()
	r.deadline = spec.MaxTimelock()
	// The "start" phase is stamped with the tick it is logged at (now,
	// inside the hold) — not spec.Start, which lies in the future and
	// would let a pre-crash log record carry a post-crash tick.
	r.notePhase("start")

	for id := 0; id < spec.D.NumArcs(); id++ {
		r.cids[spec.ContractID(id)] = id
	}
	shared := cfg.Registry != nil
	if shared {
		r.reg = cfg.Registry
	} else {
		r.reg = chain.NewRegistry(scheduler)
	}
	r.probe = r.reg.DeliveryProbe()
	for id := 0; id < spec.D.NumArcs(); id++ {
		aa := spec.Assets[id]
		owner := spec.PartyOf(spec.D.Arc(id).Head)
		ch := r.reg.Chain(aa.Chain)
		if a, exists := ch.Asset(aa.Asset); exists {
			// Shared chains: the asset was minted up front (by the engine's
			// intake); verify it is what the spec says and who owns it.
			cur, _ := ch.OwnerOf(aa.Asset)
			if a.Amount != aa.Amount || cur != chain.ByParty(owner) {
				return nil, fmt.Errorf("conc: asset %s/%s mismatch: amount %d owner %s",
					aa.Chain, aa.Asset, a.Amount, cur)
			}
			continue
		}
		if err := ch.RegisterAsset(chain.Asset{
			ID: aa.Asset, Amount: aa.Amount,
		}, owner); err != nil {
			return nil, fmt.Errorf("conc: registering assets: %w", err)
		}
	}
	if spec.Broadcast {
		r.reg.Chain(core.BroadcastChain)
	}

	// Cache each involved chain's delivery margin and per-chain probe.
	// The margin comes from the chain's commitment-model timing; an
	// Instant chain (zero Timing) reproduces the historical spec.Delta
	// margin bit-for-bit, so this block changes nothing for ideal chains.
	r.onRevert = cfg.OnRevert
	base := vtime.Duration(spec.Delta)
	r.delays = make(map[string]vtime.Duration, spec.D.NumArcs()+1)
	chainNames := make([]string, 0, spec.D.NumArcs()+1)
	for id := 0; id < spec.D.NumArcs(); id++ {
		chainNames = append(chainNames, spec.Assets[id].Chain)
	}
	if spec.Broadcast {
		chainNames = append(chainNames, core.BroadcastChain)
	}
	for _, name := range chainNames {
		if _, done := r.delays[name]; done {
			continue
		}
		ch := r.reg.Chain(name)
		r.delays[name] = ch.Timing().DeliveryDelay(base)
		if ch.CommitmentModelName() != "instant" {
			r.reorgAware = true
		}
		if p := r.reg.ChainDeliveryProbe(name); p != nil {
			if r.chainProbes == nil {
				r.chainProbes = make(map[string]chain.DeliveryProbe, len(chainNames))
			}
			r.chainProbes[name] = p
		}
	}

	horizon := spec.Horizon().Add(vtime.Scale(cfg.ExtraDelta, spec.Delta))
	r.horizonTick = horizon
	ctx, cancel := context.WithCancel(context.Background())
	r.ctx = ctx

	// On a real-time scheduler, one mailbox goroutine per party: all
	// behavior callbacks and alarms run there, so behaviors stay
	// single-threaded. On a virtual one the scheduler's same-stripe
	// serialization is that guarantee instead.
	n := spec.D.NumVertices()
	r.parties = make([]*party, n)
	wg := new(sync.WaitGroup)
	for v := 0; v < n; v++ {
		b := behaviors[digraph.Vertex(v)]
		if b == nil {
			b = core.ConformingFor(spec)
		}
		p := &party{
			runner:   r,
			vertex:   digraph.Vertex(v),
			behavior: b,
		}
		p.envc.p = p
		r.parties[v] = p
		if r.virtual != nil {
			continue
		}
		// A small buffer suffices: deliveries are produced only by timer
		// callbacks (each with a ctx-cancel escape hatch on its send), and
		// the party loop drains without ever blocking on another mailbox —
		// a full buffer is backpressure, not deadlock. An oversized channel
		// here dominated per-run allocations (~8 KiB × parties × runs).
		p.mailbox = make(chan *delivery, 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.loop(ctx)
		}()
	}
	subKey := fmt.Sprintf("conc-run-%d", atomic.AddUint64(&runSeq, 1))
	if shared {
		// Contract-keyed routes instead of a blanket subscription: every
		// record about one of this run's contracts reaches onNote in O(1),
		// and records about other swaps' contracts never do — on a shared
		// registry the blanket fanout made every ledger write cost O(live
		// runs). Only the broadcast chain still needs the firehose: its
		// data records carry a tag, not a contract ID, and onNote filters
		// them by spec tag.
		onNote := r.onNote // one method value for every route
		for id := 0; id < spec.D.NumArcs(); id++ {
			r.reg.SubscribeContract(spec.Assets[id].Chain, subKey, spec.ContractID(id), onNote)
		}
		r.reg.Chain(core.BroadcastChain).Subscribe(subKey, onNote)
	} else {
		r.reg.SetObserverAll(r.onNote)
	}

	// Start everyone at T−Δ (leaders deploy ahead; see core.Runner).
	initAt := spec.Start.Add(-vtime.Duration(spec.Delta))
	for _, p := range r.parties {
		r.schedule(&delivery{p: p, at: initAt, kind: deliverInit})
	}
	horizonCh := make(chan struct{})
	rn := &Running{
		r:         r,
		cfg:       cfg,
		cancel:    cancel,
		partyWG:   wg,
		horizonCh: horizonCh,
		subKey:    subKey,
		shared:    shared,
	}
	r.schedule(&delivery{at: horizon, fn: func() { rn.fireHorizon(); close(horizonCh) }})
	release()

	return rn, nil
}

// Wait blocks until the prepared run finishes, tears it down, and
// returns the result. Call it exactly once.
func (rn *Running) Wait() *Result {
	r := rn.r
	// Let the protocol play out to the horizon — or, with EarlyExit, only
	// until every arc settles. A settled arc is final, so nothing after
	// the last transfer can change an outcome: the full-Δ grace sleep the
	// runtime used to pay here bought only trailing OnSettled trace
	// events, which EarlyExit documents as trimmable. The horizon timer
	// is simply never waited on once all arcs resolve. (Deterministic
	// callers should leave EarlyExit off: cancelling not-yet-fired
	// trailing deliveries races wall time against the virtual clock,
	// which perturbs the delivery-probe sample stream across replays.)
	if rn.cfg.EarlyExit {
		select {
		case <-rn.horizonCh:
		case <-r.done:
		}
	} else {
		<-rn.horizonCh
	}
	// Teardown order matters: (1) stop timers so no new callbacks start,
	// (2) wait out callbacks already past the stop check (their mailbox
	// sends complete while the parties still drain), (3) cancel and join
	// the parties. A delivery stranded in a mailbox after that holds
	// nothing — wall time cannot be held — and is simply dropped, exactly
	// as run's ctx guard would have dropped it.
	r.stopTimers()
	r.fnWG.Wait()
	rn.cancel()
	rn.partyWG.Wait()
	if rn.shared {
		for id := 0; id < r.spec.D.NumArcs(); id++ {
			r.reg.UnsubscribeContract(r.spec.Assets[id].Chain, rn.subKey, r.spec.ContractID(id))
		}
		r.reg.Chain(core.BroadcastChain).Unsubscribe(rn.subKey)
	}
	// EarlyExit teardown may have cancelled the horizon timer before it
	// fired; the run is over either way.
	rn.fireHorizon()

	return r.buildResult()
}

// runSeq issues unique subscription keys for runs over shared registries.
var runSeq uint64

type runner struct {
	setup *core.Setup
	spec  *core.Spec
	sched sched.Scheduler
	// virtual is sched when it is a *sched.Virtual, else nil: deliveries
	// then execute inside their scheduler event and parties have no
	// mailbox goroutine. Every event the run schedules carries stripe.
	virtual *sched.Virtual
	stripe  uint64
	reg     *chain.Registry
	probe   chain.DeliveryProbe
	log     *trace.Log
	ctx     context.Context
	// horizonTick is the run's scheduled end, for Result.SettleTick when
	// some arc never resolves.
	horizonTick vtime.Ticks

	// cids maps this swap's contract IDs to arc IDs — the filter that
	// keeps a run deaf to other swaps sharing the same chains.
	cids map[chain.ContractID]int

	// delays caches each involved chain's delivery margin, derived at
	// Prepare from the chain's commitment-model timing (for an Instant
	// chain this reproduces the historical single-Δ margin exactly).
	delays map[string]vtime.Duration
	// chainProbes caches the registry's per-chain delivery probes for the
	// involved chains; observations feed them alongside the global probe.
	chainProbes map[string]chain.DeliveryProbe
	// reorgAware is set when any involved chain can revert or delay
	// finality; it gates the re-delivery dedupe below and the
	// finality-gated resolution path. False keeps the historical
	// zero-overhead shape.
	reorgAware bool
	// seenEvents dedupes behavior deliveries a reorg re-apply would
	// repeat (OnContract, OnUnlock, OnRedeem, OnSettled). Guarded by mu;
	// nil unless reorgAware.
	seenEvents map[eventKey]bool
	// onRevert is Config.OnRevert.
	onRevert func(RevertEvent)

	// onPhase reports coarse phase transitions (Config.OnPhase); deadline
	// is the spec's max timelock, fixed at Prepare. phaseSeen (under mu)
	// makes each phase fire at most once.
	onPhase   func(PhaseEvent)
	deadline  vtime.Ticks
	phaseSeen map[string]bool

	parties []*party

	// live lists this run's outstanding deliveries (linked through the
	// records themselves) so teardown can cancel their timers in one sweep
	// instead of leaking them (or, worse, leaving dead events in a
	// long-lived shared scheduler). fnWG counts timer callbacks past the
	// stop check, so teardown can wait for their mailbox sends to finish
	// before the parties stop draining.
	timersMu sync.Mutex
	live     *delivery
	stopped  bool
	fnWG     sync.WaitGroup

	mu sync.Mutex
	// arcs is the per-arc run state, by arc ID; resolved counts its
	// resolved entries.
	arcs     []arcState
	resolved int
	// lastResolve is the tick of the most recent arc resolution.
	lastResolve vtime.Ticks
	done        chan struct{}
}

// arcState is what the run tracks per arc. pubTick and resTick bound the
// arc's escrow span: first publish tick and first resolution tick
// (first-write wins — a reorg re-publish does not restart the lock
// interval the owner already paid for).
type arcState struct {
	published, resolved, claimed bool
	pubTick, resTick             vtime.Ticks
}

// deliveryKind selects the behavior callback a delivery makes.
type deliveryKind uint8

const (
	deliverFunc      deliveryKind = iota // fn(): behavior alarms, run-level events
	deliverInit                          // Init
	deliverContract                      // OnContract(arc, contract)
	deliverUnlock                        // OnUnlock(arc, lock, key)
	deliverRedeem                        // OnRedeem(arc, key.Secret)
	deliverSettled                       // OnSettled(arc, claimed)
	deliverBroadcast                     // OnBroadcast(lock, key)
)

// delivery is one scheduled event of a run: what to hand to which party
// at which tick, and — while it is outstanding — its scheduler timer and
// its place in the run's live list. One record replaces a closure per
// layer; the record is the only per-delivery state.
type delivery struct {
	// p is the receiving party; nil marks a run-level event (the horizon),
	// whose fn runs ungated on the scheduler.
	p  *party
	at vtime.Ticks
	// alarm deliveries bypass the abandon gate: refund alarms keep running
	// for abandoned parties, as in the simulator runtime.
	alarm bool
	kind  deliveryKind
	// src names the chain a delivery was sourced from, so the observed lag
	// also feeds that chain's probe; empty for alarms and inits.
	src       string
	arc, lock int
	claimed   bool
	key       hashkey.Hashkey
	contract  chain.Contract
	fn        func()

	timer      sched.Timer
	prev, next *delivery
}

// eventKey identifies a behavior delivery for the reorg re-delivery
// dedupe.
type eventKey struct {
	kind      deliveryKind
	arc, lock int
	claimed   bool
}

// schedule arms d at its tick, tracked for teardown cancellation. The
// callback re-checks the stopped flag under the timer lock, so after
// stopTimers returns no new callback body can start (fnWG covers the ones
// already past the check).
func (r *runner) schedule(d *delivery) {
	r.timersMu.Lock()
	defer r.timersMu.Unlock()
	if r.stopped {
		return
	}
	fire := func() { r.fire(d) }
	if r.virtual != nil {
		d.timer = r.virtual.AtKeyed(d.at, r.stripe, fire)
	} else {
		d.timer = r.sched.At(d.at, fire)
	}
	d.next = r.live
	if r.live != nil {
		r.live.prev = d
	}
	r.live = d
}

// stopTimers cancels every outstanding timer and blocks new ones.
func (r *runner) stopTimers() {
	r.timersMu.Lock()
	r.stopped = true
	live := r.live
	r.live = nil
	r.timersMu.Unlock()
	for d := live; d != nil; d = d.next {
		d.timer.Stop()
	}
}

// fire is d's scheduler callback: it takes d off the live list and hands
// it to its party. On a virtual scheduler the event IS the party's
// execution — the dispatcher (or this stripe's worker) already holds the
// clock for the duration of the callback, and same-stripe serialization
// keeps the behavior single-threaded: no handoff, no wait. On a real-time
// one the delivery goes to the party's mailbox goroutine.
func (r *runner) fire(d *delivery) {
	r.timersMu.Lock()
	if r.stopped {
		r.timersMu.Unlock()
		return
	}
	r.fnWG.Add(1)
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		r.live = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	}
	d.prev, d.next = nil, nil
	r.timersMu.Unlock()
	defer r.fnWG.Done()

	switch {
	case d.p == nil:
		d.fn()
	case r.virtual != nil:
		r.run(d)
	default:
		select {
		case d.p.mailbox <- d:
		case <-r.ctx.Done():
		}
	}
}

// run makes d's behavior callback on its party's thread of control.
func (r *runner) run(d *delivery) {
	if r.ctx.Err() != nil {
		return // teardown
	}
	p := d.p
	if !d.alarm && p.abandoned {
		return
	}
	r.observeLag(d.src, d.at)
	switch d.kind {
	case deliverFunc:
		d.fn()
	case deliverInit:
		p.behavior.Init(p.env())
	case deliverContract:
		p.behavior.OnContract(p.env(), d.arc, d.contract)
	case deliverUnlock:
		p.behavior.OnUnlock(p.env(), d.arc, d.lock, d.key)
	case deliverRedeem:
		p.behavior.OnRedeem(p.env(), d.arc, d.key.Secret)
	case deliverSettled:
		p.behavior.OnSettled(p.env(), d.arc, d.claimed)
	case deliverBroadcast:
		p.behavior.OnBroadcast(p.env(), d.lock, d.key)
	}
}

// deliverTo schedules p's own copy of d.
func (r *runner) deliverTo(p *party, d delivery) {
	d.p = p
	r.schedule(&d)
}

// deliverIncident schedules d for each endpoint of d.arc.
func (r *runner) deliverIncident(d delivery) {
	arc := r.spec.D.Arc(d.arc)
	r.deliverTo(r.parties[arc.Head], d)
	r.deliverTo(r.parties[arc.Tail], d)
}

// observeLag feeds one delivery's observed lag past its scheduled tick
// to the global probe and, when the delivery was sourced from a chain
// event, to that chain's probe — so adaptive Δ can see per-chain lag
// instead of one blended stream.
func (r *runner) observeLag(src string, t vtime.Ticks) {
	lag := r.sched.Now().Sub(t)
	if lag < 0 {
		lag = 0
	}
	if r.probe != nil {
		r.probe.Observe(lag)
	}
	if src != "" {
		if p := r.chainProbes[src]; p != nil {
			p.Observe(lag)
		}
	}
}

// notePublished records an arc's first contract-publication tick — the
// open of its escrow span. Safe from any goroutine.
func (r *runner) notePublished(arcID int, at vtime.Ticks) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := &r.arcs[arcID]; !a.published {
		a.published, a.pubTick = true, at
	}
}

func (r *runner) setResolved(arcID int, claimed bool) {
	now := r.sched.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &r.arcs[arcID]
	a.claimed = claimed
	if now > r.lastResolve {
		r.lastResolve = now
	}
	if a.resolved {
		return
	}
	a.resolved, a.resTick = true, now
	r.resolved++
	if r.resolved == len(r.arcs) {
		close(r.done)
	}
}

// notePhase reports one coarse phase transition through Config.OnPhase,
// at most once per run per phase. Safe from any goroutine.
func (r *runner) notePhase(phase string) {
	if r.onPhase == nil {
		return
	}
	r.mu.Lock()
	if r.phaseSeen == nil {
		r.phaseSeen = make(map[string]bool, 3)
	}
	if r.phaseSeen[phase] {
		r.mu.Unlock()
		return
	}
	r.phaseSeen[phase] = true
	r.mu.Unlock()
	r.onPhase(PhaseEvent{Phase: phase, At: r.sched.Now(), Deadline: r.deadline})
}

func (r *runner) getResolved(arcID int) (bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arcs[arcID].resolved, r.arcs[arcID].claimed
}

// deliveryDelay returns the cached delivery margin for events sourced
// from the named chain. The fallback (an uncached chain, only possible
// for notes outside the swap's asset set) is the Instant formula on the
// spec's base Δ — exactly the historical value.
func (r *runner) deliveryDelay(name string) vtime.Duration {
	if d, ok := r.delays[name]; ok {
		return d
	}
	return chain.Timing{}.DeliveryDelay(vtime.Duration(r.spec.Delta))
}

// dupEvent records a behavior-delivery key and reports whether it was
// already delivered. Always false (and allocation-free) when no involved
// chain can reorg: re-deliveries only exist when a revert re-applies
// records, so ideal-chain runs never pay for the map.
func (r *runner) dupEvent(key eventKey) bool {
	if !r.reorgAware {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seenEvents == nil {
		r.seenEvents = make(map[eventKey]bool)
	}
	if r.seenEvents[key] {
		return true
	}
	r.seenEvents[key] = true
	return false
}

// onNote fans chain notifications out to the incident parties within Δ,
// mirroring core.Runner.onNote. Unlike the simulator — which realizes the
// worst case exactly and leans on inclusive deadlines — real scheduling
// adds jitter on top of the delivery target, so targets sit a quarter-Δ
// inside the bound (detection strictly within Δ, as the paper's model
// allows): the protocol's deadline margins then scale with Δ instead of
// being a fixed tick count, which is what lets a loaded box widen Δ to
// buy robustness — and, with the delivery probe watching actual lag, lets
// the engine shrink Δ back when the hardware is keeping up. The margin is
// per-chain: each chain's commitment-model timing decides it, and an
// Instant chain reproduces the historical spec.Delta margin exactly.
//
// On chains with delayed finality, parties still act on applied
// (provisional) events optimistically — that is what keeps the swap
// moving at chain speed — but an arc only RESOLVES when its closing
// transfer finalizes, and a revert re-applies records through the normal
// paths (with re-deliveries deduped, since behaviors already acted).
func (r *runner) onNote(n chain.Notification) {
	// d is the delivery this note becomes, filled in per kind below.
	d := delivery{at: n.At.Add(r.deliveryDelay(n.Chain)), src: n.Chain}
	switch n.Kind {
	case chain.NoteContractPublished:
		c, ok := n.Event.(chain.Contract)
		if !ok {
			return
		}
		arcID, mine := r.cids[n.Contract]
		if !mine {
			return // another swap's contract on a shared chain
		}
		r.notePublished(arcID, n.At)
		r.notePhase("escrow")
		d.kind, d.arc, d.contract = deliverContract, arcID, c
		if r.dupEvent(eventKey{kind: d.kind, arc: arcID}) {
			return // reorg re-publish: parties already saw this contract
		}
		r.deliverIncident(d)
	case chain.NoteInvocation:
		if _, mine := r.cids[n.Contract]; !mine {
			return
		}
		switch ev := n.Event.(type) {
		case htlc.UnlockedEvent:
			r.notePhase("reveal")
			d.kind, d.arc, d.lock, d.key = deliverUnlock, ev.ArcID, ev.LockIndex, ev.Key
			if r.dupEvent(eventKey{kind: d.kind, arc: d.arc, lock: d.lock}) {
				return
			}
			r.deliverIncident(d)
		case htlc.RedeemedEvent:
			r.notePhase("reveal")
			d.kind, d.arc, d.key.Secret = deliverRedeem, ev.ArcID, ev.Secret
			if r.dupEvent(eventKey{kind: d.kind, arc: d.arc}) {
				return
			}
			r.deliverIncident(d)
		}
	case chain.NoteTransfer:
		arcID, mine := r.cids[n.Contract]
		if !mine {
			return
		}
		ch := r.reg.Chain(n.Chain)
		c, ok := ch.Contract(n.Contract)
		if !ok {
			return
		}
		counter := r.spec.PartyOf(r.spec.D.Arc(arcID).Tail)
		owner, _ := ch.OwnerOf(c.AssetID())
		claimed := owner == chain.ByParty(counter)
		d.kind, d.arc, d.claimed = deliverSettled, arcID, claimed
		if !r.dupEvent(eventKey{kind: d.kind, arc: arcID, claimed: claimed}) {
			r.deliverIncident(d)
		}
		if n.Provisional {
			return // resolution waits for the transfer to finalize
		}
		r.setResolved(arcID, claimed)
	case chain.NoteFinalized:
		arcID, mine := r.cids[n.Contract]
		if !mine {
			return
		}
		ch := r.reg.Chain(n.Chain)
		c, ok := ch.Contract(n.Contract)
		if !ok {
			return
		}
		counter := r.spec.PartyOf(r.spec.D.Arc(arcID).Tail)
		owner, _ := ch.OwnerOf(c.AssetID())
		r.setResolved(arcID, owner == chain.ByParty(counter))
	case chain.NoteReverted:
		arcID, mine := r.cids[n.Contract]
		if !mine {
			return
		}
		if r.onRevert != nil {
			r.onRevert(RevertEvent{
				ArcID:    arcID,
				Chain:    n.Chain,
				Contract: n.Contract,
				Kind:     n.Reverted,
				At:       n.At,
			})
		}
	case chain.NoteData:
		if n.Chain != core.BroadcastChain {
			return
		}
		msg, ok := n.Event.(core.BroadcastMsg)
		if !ok || msg.Tag != r.spec.Tag {
			return // another swap's secret on the shared broadcast chain
		}
		r.notePhase("reveal")
		d.kind, d.lock, d.key = deliverBroadcast, msg.LockIndex, msg.Key
		for _, p := range r.parties {
			r.deliverTo(p, d)
		}
	}
}

func (r *runner) buildResult() *Result {
	spec := r.spec
	triggered := make(map[int]bool, spec.D.NumArcs())
	for id := 0; id < spec.D.NumArcs(); id++ {
		if settled, claimed := r.getResolved(id); settled {
			triggered[id] = claimed
			continue
		}
		c, ok := r.reg.Chain(spec.Assets[id].Chain).Contract(spec.ContractID(id))
		if !ok {
			continue
		}
		if sw, ok := c.(*htlc.Swap); ok && sw.AllUnlocked() {
			triggered[id] = true
		}
	}
	r.mu.Lock()
	settleTick := r.lastResolve
	allResolved := r.resolved == len(r.arcs)
	escrows := make([]EscrowSpan, 0, len(r.arcs))
	for id, a := range r.arcs {
		if !a.published {
			continue // never published: nothing was locked
		}
		span := EscrowSpan{ArcID: id, From: a.pubTick, To: r.horizonTick}
		if a.resolved {
			span.To, span.Resolved = a.resTick, true
		}
		if span.To < span.From {
			span.To = span.From
		}
		escrows = append(escrows, span)
	}
	r.mu.Unlock()
	if !allResolved {
		settleTick = r.horizonTick
	}
	return &Result{
		Triggered:  triggered,
		Report:     outcome.NewReport(spec.D, triggered),
		Registry:   r.reg,
		Log:        r.log,
		Escrows:    escrows,
		SettleTick: settleTick,
	}
}

// party is one participant: goroutine-backed on a real-time scheduler,
// mailbox nil on a virtual one, where the scheduler's same-stripe
// serialization replaces the goroutine.
type party struct {
	runner    *runner
	vertex    digraph.Vertex
	behavior  core.Behavior
	mailbox   chan *delivery
	envc      concEnv
	abandoned bool // touched only on the party goroutine / stripe
}

func (p *party) loop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-p.mailbox:
			p.runner.run(d)
		}
	}
}

// env returns the party's cached Env. concEnv is stateless (one back
// pointer), and every callback of a party is serialized — on its mailbox
// goroutine or its stripe — so one value per party serves all callbacks
// without allocating per delivery.
func (p *party) env() core.Env { return &p.envc }

// concEnv implements core.Env against real chains and the shared scheduler.
type concEnv struct {
	p *party
}

var _ core.Env = (*concEnv)(nil)

func (e *concEnv) Now() vtime.Ticks       { return e.p.runner.sched.Now() }
func (e *concEnv) Spec() *core.Spec       { return e.p.runner.spec }
func (e *concEnv) Vertex() digraph.Vertex { return e.p.vertex }
func (e *concEnv) Party() chain.PartyID   { return e.p.runner.spec.PartyOf(e.p.vertex) }
func (e *concEnv) Signer() *hashkey.Signer {
	return e.p.runner.setup.Signers[e.p.vertex]
}

func (e *concEnv) Secret() (hashkey.Secret, int, bool) {
	idx, ok := e.p.runner.spec.LeaderIndex(e.p.vertex)
	if !ok {
		return hashkey.Secret{}, 0, false
	}
	return e.p.runner.setup.Secrets[idx], idx, true
}

func (e *concEnv) chainOf(arcID int) *chain.Chain {
	return e.p.runner.reg.Chain(e.p.runner.spec.Assets[arcID].Chain)
}

func (e *concEnv) Contract(arcID int) (chain.Contract, bool) {
	return e.chainOf(arcID).Contract(e.p.runner.spec.ContractID(arcID))
}

func (e *concEnv) Resolved(arcID int) (bool, bool) {
	return e.p.runner.getResolved(arcID)
}

func (e *concEnv) Publish(arcID int) error {
	spec := e.p.runner.spec
	if spec.Kind == core.KindGeneral {
		return e.PublishSwapParams(spec.ContractParams(arcID))
	}
	return e.PublishHTLCParams(spec.HTLCParams(arcID))
}

func (e *concEnv) PublishSwapParams(p htlc.SwapParams) error {
	sw, err := htlc.NewSwap(p)
	if err != nil {
		return err
	}
	return e.publishContract(p.ArcID, sw)
}

func (e *concEnv) PublishHTLCParams(p htlc.HTLCParams) error {
	h, err := htlc.NewHTLC(p)
	if err != nil {
		return err
	}
	return e.publishContract(p.ArcID, h)
}

func (e *concEnv) publishContract(arcID int, c chain.Contract) error {
	if err := e.chainOf(arcID).PublishContract(e.Party(), c); err != nil {
		return err
	}
	e.Note(trace.KindContractPublished, arcID, -1, "")
	return nil
}

func (e *concEnv) Unlock(arcID, lockIdx int, key hashkey.Hashkey) error {
	args := htlc.UnlockArgs{LockIndex: lockIdx, Key: key}
	err := e.chainOf(arcID).Invoke(e.Party(), e.p.runner.spec.ContractID(arcID),
		htlc.MethodUnlock, args, args.WireSize())
	if err == nil {
		e.Note(trace.KindUnlocked, arcID, lockIdx, "")
	}
	return err
}

func (e *concEnv) Redeem(arcID int, secret hashkey.Secret) error {
	args := htlc.RedeemArgs{Secret: secret}
	err := e.chainOf(arcID).Invoke(e.Party(), e.p.runner.spec.ContractID(arcID),
		htlc.MethodRedeem, args, args.WireSize())
	if err == nil {
		e.Note(trace.KindClaimed, arcID, -1, "redeemed")
	}
	return err
}

func (e *concEnv) Claim(arcID int) error {
	id := e.p.runner.spec.ContractID(arcID)
	if e.chainOf(arcID).Closed(id) {
		return chain.ErrContractClosed
	}
	err := e.chainOf(arcID).Invoke(e.Party(), id, htlc.MethodClaim, nil, 16)
	if err == nil {
		e.Note(trace.KindClaimed, arcID, -1, "")
	}
	return err
}

func (e *concEnv) Refund(arcID int) error {
	id := e.p.runner.spec.ContractID(arcID)
	if e.chainOf(arcID).Closed(id) {
		return chain.ErrContractClosed
	}
	err := e.chainOf(arcID).Invoke(e.Party(), id, htlc.MethodRefund, nil, 16)
	if err == nil {
		e.Note(trace.KindRefunded, arcID, -1, "")
	}
	return err
}

func (e *concEnv) Broadcast(lockIdx int, key hashkey.Hashkey) {
	if !e.p.runner.spec.Broadcast {
		return
	}
	e.p.runner.reg.Chain(core.BroadcastChain).PublishData(e.Party(),
		fmt.Sprintf("secret for lock %d", lockIdx),
		core.BroadcastMsg{Tag: e.p.runner.spec.Tag, LockIndex: lockIdx, Key: key}, key.WireSize())
	e.Note(trace.KindBroadcast, -1, lockIdx, "")
}

func (e *concEnv) At(t vtime.Ticks, fn func()) {
	e.p.runner.schedule(&delivery{p: e.p, at: t, alarm: true, fn: fn})
}

func (e *concEnv) Abandon(reason string) {
	if e.p.abandoned {
		return
	}
	e.p.abandoned = true
	e.Note(trace.KindAbandoned, -1, -1, reason)
}

func (e *concEnv) Note(kind trace.Kind, arcID, lockIdx int, detail string) {
	e.p.runner.log.Append(trace.Event{
		At:     e.p.runner.sched.Now(),
		Kind:   kind,
		Party:  string(e.Party()),
		Arc:    arcID,
		Lock:   lockIdx,
		Detail: detail,
	})
}
