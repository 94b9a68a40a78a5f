// Package conc is the one place a swap is executed: it drives
// core.Behaviors over thread-safe mock chains with virtual ticks from a
// sched.Virtual, free or paced. Two entry points share it. Prepare/Wait (and
// Run) put a swap on the caller's scheduler and a registry it may share —
// many runs at once over one set of chains, which is what the clearing
// engine needs — and time each chain notification a quarter-Δ inside the
// bound, from the chain's commitment-model Timing. Runner (runner.go) is the
// paper's model of one swap alone: a private one-worker scheduler, a
// private registry, and every notification landing exactly Δ after its
// chain event.
//
// There is one delivery shape. A sched.Virtual already runs a stripe's
// events one at a time in scheduling order, so a delivery simply executes
// inside its scheduler event, on the dispatcher (or a dispatch helper),
// at its scheduled tick: no party goroutines exist, and behaviors stay
// single-threaded because the run's events share a stripe. The run ends the
// same way: its horizon delivery tears it down, builds the Result and hands
// it to Config.OnDone, at the tick the outcome became final. On a free clock a
// run is then a pure function of what was scheduled. The scheduler is always
// the caller's (Config.Scheduler) or the Runner's: a run never builds one.
// Only the engine paces one by the wall (sched.NewPaced): an event can run
// late there, but it sees its own tick, so the run is that same function.
package conc

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// Config parameterizes a concurrent run.
type Config struct {
	// Registry, when set, is a shared chain registry: assets already
	// registered on it are reused (their ownership is verified). A run
	// hears about its own contracts only (one route per contract), so many
	// runs may execute concurrently over the same chains — the clearing
	// engine's mode. Nil gives the run a private registry.
	Registry *chain.Registry
	// Scheduler is required: the time source every delivery of the run is
	// an event on, shared so concurrent runs agree on virtual time —
	// sched.NewVirtual for event-driven time that advances as fast as
	// callbacks drain, sched.NewPaced for the same time held to the wall
	// (the engine's default). The caller closes it. The spec's Start must be in the
	// scheduler's future (or use StartOffset).
	Scheduler *sched.Virtual
	// StartOffset, when positive, pins spec.Start to the scheduler's
	// current tick plus the offset, atomically with run setup. Under
	// virtual time this is the only safe way to pin a start (the clock
	// may advance between a caller's Now and Run); the engine uses it for
	// its start Δ after clearing, the paper's "at least Δ in the future".
	StartOffset vtime.Duration
	// EarlyExit ends the run at the tick its last arc resolves instead of
	// at the worst-case horizon: that resolution schedules the horizon
	// delivery at the current tick, and the slab budgets that one delivery
	// more. Outcomes are unaffected (an arc resolves only once its closing
	// transfer is final); only trailing trace events — the OnSettled
	// fanout of the last transfers — may be trimmed. A run with an arc that
	// never resolves (a deviant withheld or abandoned its contract) ends
	// instead when it goes quiet: after a delivery that leaves nothing of
	// the run scheduled but its horizon, no party can act again, so the
	// horizon is moved to that tick the same way. A run over a chain that
	// can revert or delay finality never goes quiet early: such a chain's
	// events reach it outside its own deliveries. The engine sets EarlyExit
	// on every run, so a finished swap frees its live-run slot at once; the
	// Runner and the conc goldens never do, and play to the horizon.
	EarlyExit bool
	// Cache, when set, replaces the spec's hashkey verification cache so
	// many concurrent runs share one (the clearing engine's mode: a
	// hashkey chain verified by one swap's contract never pays full
	// price again anywhere in the engine). Note this deliberately
	// rewires the caller's Spec — later runs of the same Setup keep the
	// shared cache, which is the desired behavior for engine-owned
	// setups (one per cleared swap).
	Cache *hashkey.VerifyCache
	// StripeKey, when nonzero, tags every scheduler event of this run with
	// the key. The run's events then serialize among themselves in
	// schedule order while distinct runs — distinct swaps, in the engine —
	// may execute concurrently on a scheduler with helpers (workers > 1).
	// Zero joins the shared unkeyed stripe.
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
	// OnDone, when set, receives the run's result once, inside its horizon
	// delivery: on the run's stripe, at the tick the outcome became final,
	// after the run's timers are stopped and its routes dropped. The
	// clearing engine settles the swap there. It runs on the dispatcher or
	// a dispatch helper, so it must not wait for another stripe. The
	// result lives in the run record: read it there, keep nothing of it.
	OnDone Settler
	// OnRevert, when set, observes commitment-model reverts touching this
	// run's contracts: a chain reorg rolled one of the swap's records
	// back. The engine logs these to the WAL and counts them. The callback
	// runs on chain-observer goroutines; it must be cheap and must not
	// call back into the run.
	OnRevert func(ev RevertEvent)
}

// Settler takes a finished run's result (Config.OnDone). The clearing
// engine's per-swap job is its own Settler, so handing it over costs no
// closure.
type Settler interface {
	Settle(*Result)
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
	// To is the tick the arc resolved; the run's planned horizon tick when
	// it never did (a stranded escrow stays locked to the bitter end, even
	// when the run itself ends sooner, having gone quiet).
	To vtime.Ticks
	// Resolved distinguishes a settled arc from a stranded one.
	Resolved bool
}

// Result reports a finished concurrent run.
type Result struct {
	// Triggered reports, per arc ID, whether the transfer happened: the
	// contract was claimed, or is fully unlocked and therefore claimable.
	Triggered []bool
	Report    outcome.Report
	Registry  *chain.Registry
	Log       *trace.Log
	// Escrows holds one span per arc whose contract actually published
	// (a withheld deployment locks nothing), ordered by arc ID.
	Escrows []EscrowSpan
	// SettleTick is the virtual tick at which the last arc resolved
	// (claim or refund recorded on chain). For runs where some arc never
	// resolved — a crashed party abandoning its own contract, a withheld
	// publication — it is the tick the run ended instead, the point at
	// which the outcome became final: the tick it went quiet under
	// EarlyExit (see Config.EarlyExit), its horizon otherwise. Unlike
	// wall-clock latencies, it is identical across replays of a
	// deterministic run.
	SettleTick vtime.Ticks
}

// Running is a prepared, in-flight concurrent run: the assets are
// verified, every party is live, and the protocol is playing out on the
// scheduler. Its horizon delivery builds the result; Wait blocks until then.
// The Prepare/Wait split exists for the clearing engine, where run setup
// must happen at a pinned tick (inside the clearing callback, under the
// scheduler hold) and the result is taken in Config.OnDone, not waited for.
//
// A Running is the run record: one allocation holding the runner, its
// parties with their conforming behaviors and refund alarms, its arcs and
// its result, for a swap of up to runVertices parties and runArcs arcs
// (a larger swap cuts what it outgrows from the heap). Nothing that
// outlives the swap may point into it — no chain contract, ledger entry or
// engine record — so it is garbage once the swap settles.
type Running struct {
	r runner
}

// generalRecord is the run record of a swap on Swap contracts: its
// parties' conforming behaviors sit beside the Running, in the same
// allocation, so a ring's record does not carry them.
type generalRecord struct {
	Running
	general [runVertices]core.Conforming
}

// Inline capacities of a run record (see Running).
const (
	runVertices = 4
	runArcs     = 4
)

// cut returns the first n elements of buf when they fit, else a fresh
// slice of n.
func cut[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
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

// horizonPad is how far, in Δ, a run's end sits beyond spec.Horizon(): room
// for scheduling jitter on top of the worst-case protocol length. An
// EarlyExit run ends when its last arc resolves or when it goes quiet, so
// the pad bounds only the runs that do neither — those without EarlyExit
// and those over a reorg-aware chain — and is where a stranded escrow span
// ends (EscrowSpan.To). The Runner's worst-case runs are not padded.
const horizonPad = 2

// Prepare sets a concurrent run up — registers or verifies assets,
// schedules the protocol start — and returns without waiting for it. Setup runs
// atomically under a scheduler hold, so under virtual time the protocol
// start is pinned relative to the scheduler's tick at the moment Prepare
// was called.
//
// The run is laid out from the spec's shape in two allocations: the run
// record (see Running) and a slab holding every delivery a conforming run
// of this shape makes, refund alarms included. Nothing is kept from one
// run to the next: a delivery is a scheduler event, and a stopped event
// stays queued until its tick, so no event is ever reused.
func Prepare(setup *core.Setup, behaviors map[digraph.Vertex]core.Behavior, cfg Config) (*Running, error) {
	return prepare(setup, behaviors, cfg, false)
}

// prepare is Prepare with the delivery rule spelled out. worstCase is the
// Runner's: a notification lands exactly spec.DeltaFor(chain) after its
// chain event and the run ends at spec.Horizon() — nothing jitters on a
// private free one-worker scheduler, so no margin and no padding. Otherwise targets
// sit inside the bound by the chain's own margin (see onNote).
func prepare(setup *core.Setup, behaviors map[digraph.Vertex]core.Behavior, cfg Config, worstCase bool) (*Running, error) {
	spec := setup.Spec
	if cfg.Cache != nil {
		spec.Cache = cfg.Cache
	}

	scheduler := cfg.Scheduler
	if scheduler == nil {
		return nil, fmt.Errorf("conc: Config.Scheduler is required")
	}
	log := cfg.Log
	if log == nil {
		log = &trace.Log{}
	}
	var rn *Running
	if spec.Kind == core.KindGeneral {
		rec := new(generalRecord)
		rec.r.general = rec.general[:]
		rn = &rec.Running
	} else {
		rn = new(Running)
	}
	r := &rn.r
	// Field by field, not a runner literal: the record is already on the
	// heap, and a literal would be built beside it and copied in.
	r.setup, r.spec, r.log = setup, spec, log
	r.sched, r.stripe = scheduler, cfg.StripeKey
	r.onPhase, r.onRevert, r.onDone, r.earlyExit = cfg.OnPhase, cfg.OnRevert, cfg.OnDone, cfg.EarlyExit
	// Setup runs under a hold: under virtual time the clock must not jump
	// past the start while assets are registered and inits scheduled.
	scheduler.Acquire()
	err := r.start(behaviors, cfg.StartOffset, cfg.Registry, worstCase)
	scheduler.Release()
	if err != nil {
		return nil, err
	}
	return rn, nil
}

// start lays the run out and schedules its start and horizon; prepare
// holds the clock meanwhile.
func (r *runner) start(behaviors map[digraph.Vertex]core.Behavior, startOffset vtime.Duration, reg *chain.Registry, worstCase bool) error {
	spec := r.spec
	if startOffset > 0 {
		spec.SetStart(r.sched.Now().Add(startOffset))
	}
	spec.Precompute()
	r.deadline = spec.MaxTimelock()
	// The "start" phase is stamped with the tick it is logged at (now,
	// inside the hold) — not spec.Start, which lies in the future and
	// would let a pre-crash log record carry a post-crash tick.
	r.notePhase(phaseStart)

	if reg != nil {
		r.reg = reg
	} else {
		r.reg = chain.NewRegistry(r.sched)
	}
	// Per arc: resolve the chain once, verify or register the asset, and
	// cache the chain's delivery margin. The margin comes from
	// the chain's commitment-model timing; an Instant chain (zero Timing)
	// reproduces the historical spec.Delta margin bit-for-bit.
	base := vtime.Duration(spec.Delta)
	r.arcs = cut(r.arcBuf[:], spec.D.NumArcs())
	for id := range r.arcs {
		aa := spec.Assets[id]
		owner := spec.PartyOf(spec.D.Arc(id).Head)
		ch := r.reg.Chain(aa.Chain)
		a := &r.arcs[id]
		a.r, a.id, a.ch = r, id, ch
		a.delay = ch.Timing().DeliveryDelay(base)
		if worstCase {
			a.delay = spec.DeltaFor(aa.Chain)
		}
		if ch.CommitmentModelName() != "instant" {
			r.reorgAware = true
		}
		if asset, exists := ch.Asset(aa.Asset); exists {
			// Shared chains: the asset was minted up front (by the engine's
			// intake); verify it is what the spec says and who owns it.
			cur, _ := ch.OwnerOf(aa.Asset)
			if asset.Amount != aa.Amount || cur != chain.ByParty(owner) {
				return fmt.Errorf("conc: asset %s/%s mismatch: amount %d owner %s",
					aa.Chain, aa.Asset, asset.Amount, cur)
			}
			continue
		}
		if err := ch.RegisterAsset(chain.Asset{
			ID:          aa.Asset,
			Description: fmt.Sprintf("asset for arc %d", id),
			Amount:      aa.Amount,
		}, owner); err != nil {
			return fmt.Errorf("conc: registering assets: %w", err)
		}
	}

	r.horizonTick = spec.Horizon()
	if !worstCase {
		r.horizonTick = r.horizonTick.Add(vtime.Scale(horizonPad, spec.Delta))
	}

	r.parties = cut(r.partyBuf[:], spec.D.NumVertices())
	if spec.Kind == core.KindGeneral {
		r.general = cut(r.general, len(r.parties))
	}
	r.slab = make([]delivery, 0, eventBudget(spec, r.earlyExit))
	r.alarms = cut(r.alarmBuf[:], spec.RefundAlarms())[:0]
	if spec.Kind == core.KindGeneral {
		keys := spec.D.NumArcs() * len(spec.Leaders)
		if spec.Broadcast {
			keys += len(spec.Leaders)
		}
		r.keys = make([]hashkey.Hashkey, 0, keys)
	}
	for v := range r.parties {
		p := &r.parties[v]
		p.runner, p.vertex = r, digraph.Vertex(v)
		p.envc.p = p
		if p.behavior = behaviors[p.vertex]; p.behavior == nil {
			// core.ConformingFor, with the behavior kept in the record.
			if spec.Kind == core.KindGeneral {
				p.behavior = &r.general[v]
			} else {
				p.behavior = &p.htlc
			}
		}
	}
	// One route per contract instead of a blanket subscription: every
	// record about one of this run's contracts reaches its arc's record in
	// O(1), and records about other swaps' contracts never do — on a shared
	// registry the blanket fanout made every ledger write cost O(live
	// runs). Only a broadcasting swap listens to the broadcast chain, whose
	// data records carry a tag, not a contract ID.
	for id := range r.arcs {
		r.arcs[id].ch.SubscribeContract(spec.ContractID(id), &r.arcs[id])
	}
	if spec.Broadcast {
		r.bcast = r.reg.Chain(core.BroadcastChain)
		r.bcastDelay = r.bcast.Timing().DeliveryDelay(base)
		if worstCase {
			r.bcastDelay = spec.DeltaFor(core.BroadcastChain)
		}
		r.bcastKey = fmt.Sprintf("conc-run-%d", atomic.AddUint64(&runSeq, 1))
		r.bcast.Subscribe(r.bcastKey, r.onBroadcast)
	}

	// Start every party at T−Δ, in vertex order. The market clearing sets
	// the start time "at least Δ in the future" precisely so leaders can
	// publish ahead: their contracts land by T−Δ and are confirmed by
	// every follower at T, which is what makes the paper's deadline
	// arithmetic exactly tight under worst-case latency (the leader's
	// degenerate hashkey expires at T + diam·Δ, the very tick Phase One
	// completes for it).
	initAt := spec.Start.Add(-vtime.Duration(spec.Delta))
	r.schedule(delivery{at: initAt, kind: deliverInit})
	r.schedule(delivery{at: r.horizonTick, kind: deliverHorizon})
	return nil
}

// eventBudget is the number of scheduler events a conforming run of spec
// makes, which sizes the run's delivery slab: the
// start and the horizon, every refund alarm, and per arc its publication,
// its reveals (one redeem, or one unlock per hashlock) and its settlement —
// plus one per leader broadcast, and with early exit the horizon delivery
// the last resolution, or the run going quiet, schedules (never both). Deviations and reorg re-deliveries can
// exceed it; those deliveries come from the heap.
func eventBudget(spec *core.Spec, earlyExit bool) int {
	reveals := 1
	if spec.Kind == core.KindGeneral {
		reveals = len(spec.Leaders)
	}
	n := 2 + spec.RefundAlarms() + spec.D.NumArcs()*(2+reveals)
	if spec.Broadcast {
		n += len(spec.Leaders)
	}
	if earlyExit {
		n++
	}
	return n
}

// Wait blocks until the run's horizon delivery has built its result and
// returns it. Call it at most once. The channel it waits on exists only for
// it: a run nobody waits for (the engine's) never makes one.
func (rn *Running) Wait() *Result {
	r := &rn.r
	r.mu.Lock()
	if !r.done {
		ch := make(chan struct{})
		r.horizonCh = ch
		r.mu.Unlock()
		<-ch
	} else {
		r.mu.Unlock()
	}
	return &r.res
}

// runSeq issues unique broadcast-subscription keys.
var runSeq uint64

type runner struct {
	setup *core.Setup
	spec  *core.Spec
	// sched runs every delivery inside its scheduler event, all of them on
	// stripe.
	sched  *sched.Virtual
	stripe uint64
	reg    *chain.Registry
	log    *trace.Log
	// horizonTick is the run's planned end and where a stranded escrow
	// span ends, even when the run ends sooner. The horizon delivery
	// (finish) builds res, hands it to onDone (Config.OnDone), and sets
	// done — under mu, closing horizonCh if Wait made one. earlyExit is
	// Config.EarlyExit.
	horizonTick vtime.Ticks
	horizonCh   chan struct{}
	done        bool
	res         Result
	onDone      Settler
	earlyExit   bool

	// bcast is the broadcast chain of a spec.Broadcast run (nil otherwise),
	// with its delivery margin and this run's subscription key.
	bcast      *chain.Chain
	bcastDelay vtime.Duration
	bcastKey   string

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
	phaseSeen phase

	// parties and arcs (below) are cut from partyBuf and arcBuf, and the
	// result's tables from triggeredBuf, escrowBuf and classBuf, when the
	// swap fits in them.
	parties  []party
	partyBuf [runVertices]party
	// general holds the parties' behaviors on Swap contracts, by vertex:
	// cut from a generalRecord, or from the heap past runVertices parties.
	general      []core.Conforming
	arcBuf       [runArcs]arcRun
	triggeredBuf [runArcs]bool
	escrowBuf    [runArcs]EscrowSpan
	classBuf     [runVertices]outcome.Class

	// live lists this run's outstanding deliveries (linked through the
	// records themselves) so teardown can cancel their timers in one sweep
	// instead of leaking them (or, worse, leaving dead events in a
	// long-lived shared scheduler). slab is where the run's deliveries
	// live: cut in order, never reused, sized by eventBudget.
	timersMu sync.Mutex
	live     *delivery
	stopped  bool
	slab     []delivery

	mu sync.Mutex
	// arcs is the per-arc run record, by arc ID; resolved counts its
	// resolved entries.
	arcs     []arcRun
	resolved int
	// lastResolve is the tick of the most recent arc resolution.
	lastResolve vtime.Ticks

	// failed counts the calls a chain rejected (nothing stored, so no
	// ledger remembers them): metrics.Counters.FailedCalls of a Runner.
	failed atomic.Int64

	// unlock and redeem are the argument buffers of the run's unlock and
	// redeem calls, which its stripe serializes, reused from call to call:
	// a chain keeps only their Own copy (see chain.ReusedArgs), so nothing
	// retained points here.
	unlock htlc.UnlockArgs
	redeem htlc.RedeemArgs

	// alarms and keys are the payload tables of the deliveries that carry
	// more than an arc and a lock (see delivery), appended as they are
	// scheduled and never rewritten: alarms is cut from alarmBuf when the
	// spec's refund alarms fit it, and keys — the hashkeys unlocks and
	// broadcasts hand over — exists only on Swap contracts.
	alarms   []alarmEntry
	alarmBuf [runArcs]alarmEntry
	keys     []hashkey.Hashkey

	// htlcs is where the conforming parties' classic HTLCs are built, one
	// per arc (newHTLC). Chains keep the contracts for good, so it is an
	// allocation of its own, never cut from the record.
	htlcs []htlc.HTLC
}

// newHTLC builds arcID's canonical classic HTLC in the run's htlcs, which
// the swap's first publish allocates: a chain then keeps one object of the
// swap's contracts, not one per arc. Publishes are serialized on the run's
// stripe; a second contract for an arc takes storage of its own
// (htlc.NewHTLCIn).
func (r *runner) newHTLC(arcID int) (*htlc.HTLC, error) {
	if r.htlcs == nil {
		r.htlcs = make([]htlc.HTLC, len(r.arcs))
	}
	return htlc.NewHTLCIn(r.spec.HTLCParams(arcID), &r.htlcs[arcID])
}

// alarmEntry is one Env.At: the alarm and the argument it rings with.
type alarmEntry struct {
	a   core.Alarm
	arg int
}

// arcRun is what the run keeps per arc: where its contract lives and how
// notifications from there are timed — resolved once at Prepare, so the
// hot path never looks a chain up by name — and the arc's escrow span.
// Its address is the contract's route on the chain (chain.NoteObserver),
// which is how a notification arrives already knowing its arc. pubTick and
// resTick bound the escrow span: first publish tick and first resolution
// tick (first-write wins — a reorg re-publish does not restart the lock
// interval the owner already paid for).
type arcRun struct {
	r  *runner
	id int
	ch *chain.Chain
	// delay is the chain's delivery margin, derived from its commitment-
	// model timing.
	delay vtime.Duration

	published, resolved, claimed bool
	pubTick, resTick             vtime.Ticks

	// contract and redeemed are the payloads of the contract and redeem
	// deliveries this arc's route scheduled: the published contract, and
	// the event its redeem emitted (which the contract owns and never
	// writes again). Each is written once, before its delivery is
	// scheduled — a reorg's re-publish or re-redeem is deduped first.
	contract chain.Contract
	redeemed *htlc.RedeemedEvent
}

// OnNote implements chain.NoteObserver.
func (a *arcRun) OnNote(n chain.Notification) { a.r.onNote(a, n) }

// phase is a set of coarse protocol phases (see Config.OnPhase).
type phase uint8

const (
	phaseStart phase = 1 << iota
	phaseEscrow
	phaseReveal
)

func (p phase) String() string {
	switch p {
	case phaseStart:
		return "start"
	case phaseEscrow:
		return "escrow"
	default:
		return "reveal"
	}
}

// deliveryKind selects what a delivery does when it fires.
type deliveryKind uint8

const (
	deliverAlarm     deliveryKind = iota // alarm.Ring(arc): a party's own alarm
	deliverHorizon                       // the run's end: no party
	deliverInit                          // Init, every party
	deliverContract                      // OnContract(arc, contract), both ends of arc
	deliverUnlock                        // OnUnlock(arc, lock, key), both ends of arc
	deliverRedeem                        // OnRedeem(arc, key.Secret), both ends of arc
	deliverSettled                       // OnSettled(arc, claimed), both ends of arc
	deliverBroadcast                     // OnBroadcast(lock, key), every party
)

// delivery is one scheduled event of a run: what to hand to which parties
// at which tick, and — while it is outstanding — its scheduler timer and
// its place in the run's live list. One record replaces a closure per
// layer, and the record is also the scheduler's own queue entry (ev), so a
// delivery costs the run no allocation at all.
//
// A delivery carries its kind, tick, arc and lock; what else it hands
// over sits in a table of the run record, found by slot: a contract or a
// redeem's event by the arc whose route heard it (runner.arcs), a hashkey
// in runner.keys, an alarm in runner.alarms. No kind's payload sits in
// every delivery, so a ring's slab is half the bytes
// (TestDeliveryFitsItsBudget).
type delivery struct {
	ev         sched.Event
	r          *runner
	prev, next *delivery
	at         vtime.Ticks
	arc        int32
	lock       int32
	slot       int32
	kind       deliveryKind
	claimed    bool
}

// Fire implements sched.Handler.
func (d *delivery) Fire() { d.r.fire(d) }

// eventKey identifies a behavior delivery for the reorg re-delivery
// dedupe.
type eventKey struct {
	kind      deliveryKind
	arc, lock int
	claimed   bool
}

// schedule arms d at its tick, tracked for teardown cancellation. The
// callback re-checks the stopped flag under the timer lock, so after
// stopTimers returns no delivery of the run starts.
func (r *runner) schedule(d delivery) {
	r.timersMu.Lock()
	defer r.timersMu.Unlock()
	if r.stopped {
		return
	}
	var slot *delivery
	if n := len(r.slab); n < cap(r.slab) {
		r.slab = r.slab[:n+1]
		slot = &r.slab[n]
	} else {
		slot = new(delivery)
	}
	*slot = d
	slot.r = r
	r.sched.Schedule(&slot.ev, slot.at, 0, r.stripe, slot)
	slot.next = r.live
	if r.live != nil {
		r.live.prev = slot
	}
	r.live = slot
}

// stopTimers cancels every outstanding timer and blocks new ones.
func (r *runner) stopTimers() {
	r.timersMu.Lock()
	r.stopped = true
	live := r.live
	r.live = nil
	r.timersMu.Unlock()
	for d := live; d != nil; d = d.next {
		d.ev.Stop()
	}
}

// finish is the horizon delivery, at tick end: the run is over. It stops
// the run's timers, drops its contract and broadcast routes, builds the
// result and hands it to Config.OnDone, then releases Wait. Every other
// delivery of the run shares its stripe, so none is in flight meanwhile.
func (r *runner) finish(end vtime.Ticks) {
	r.stopTimers()
	for id := range r.arcs {
		r.arcs[id].ch.UnsubscribeContract(r.spec.ContractID(id), &r.arcs[id])
	}
	if r.bcast != nil {
		r.bcast.Unsubscribe(r.bcastKey)
	}
	r.buildResult(end)
	if r.onDone != nil {
		r.onDone.Settle(&r.res)
	}
	r.mu.Lock()
	r.done = true
	if r.horizonCh != nil {
		close(r.horizonCh)
	}
	r.mu.Unlock()
}

// fire is d's scheduler callback: it takes d off the live list and hands
// it to the parties its kind names — everyone for an init or a broadcast,
// else the two ends of d.arc, head first. The event IS their execution: the
// dispatcher (or this stripe's worker) already holds the clock for the
// duration of the callback, and same-stripe serialization keeps the
// behaviors single-threaded: no handoff, no wait. One event serves the
// parties in the order one event per party would have run, each behind its
// own abandon gate and lag observation.
func (r *runner) fire(d *delivery) {
	r.timersMu.Lock()
	if r.stopped {
		r.timersMu.Unlock()
		return
	}
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

	switch d.kind {
	case deliverHorizon:
		r.finish(d.at)
		return
	case deliverAlarm:
		// Alarms bypass the abandon gate: refund alarms keep running for
		// abandoned parties.
		al := r.alarms[d.slot]
		al.a.Ring(al.arg)
	case deliverInit, deliverBroadcast:
		for v := range r.parties {
			r.run(d, &r.parties[v])
		}
	default:
		arc := r.spec.D.Arc(int(d.arc))
		r.run(d, &r.parties[arc.Head])
		r.run(d, &r.parties[arc.Tail])
	}
	if r.earlyExit && !r.reorgAware {
		r.exitIfQuiet()
	}
}

// exitIfQuiet ends a run that has gone quiet: when its live list holds
// nothing but the horizon delivery, not yet due, no party acts again —
// every action a party takes happens inside one of the run's own
// deliveries or alarms, and on instant chains every note it causes is
// heard before that delivery returns — so the horizon is scheduled now, as
// setResolved does for the last resolution. A reorg-aware run keeps
// playing: finality and revert events reach it outside its live list.
func (r *runner) exitIfQuiet() {
	now := r.sched.Now()
	r.timersMu.Lock()
	d := r.live
	quiet := d != nil && d.next == nil && d.kind == deliverHorizon && d.at > now
	r.timersMu.Unlock()
	if quiet {
		r.schedule(delivery{at: now, kind: deliverHorizon})
	}
}

// run makes d's behavior callback for p.
func (r *runner) run(d *delivery, p *party) {
	if p.abandoned {
		return
	}
	arc := int(d.arc)
	switch d.kind {
	case deliverInit:
		p.behavior.Init(p.env())
	case deliverContract:
		p.behavior.OnContract(p.env(), arc, r.arcs[arc].contract)
	case deliverUnlock:
		p.behavior.OnUnlock(p.env(), arc, int(d.lock), r.keys[d.slot])
	case deliverRedeem:
		p.behavior.OnRedeem(p.env(), arc, r.arcs[d.slot].redeemed.Secret)
	case deliverSettled:
		p.behavior.OnSettled(p.env(), arc, d.claimed)
	case deliverBroadcast:
		p.behavior.OnBroadcast(p.env(), int(d.lock), r.keys[d.slot])
	}
}

// notePublished records an arc's first contract-publication tick — the
// open of its escrow span. Safe from any goroutine.
func (r *runner) notePublished(a *arcRun, at vtime.Ticks) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !a.published {
		a.published, a.pubTick = true, at
	}
}

func (r *runner) setResolved(a *arcRun, claimed bool) {
	now := r.sched.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	a.claimed = claimed
	if now > r.lastResolve {
		r.lastResolve = now
	}
	if a.resolved {
		return
	}
	a.resolved, a.resTick = true, now
	r.resolved++
	if r.resolved == len(r.arcs) && r.earlyExit {
		r.schedule(delivery{at: now, kind: deliverHorizon})
	}
}

// notePhase reports one coarse phase transition through Config.OnPhase,
// at most once per run per phase. Safe from any goroutine.
func (r *runner) notePhase(p phase) {
	if r.onPhase == nil {
		return
	}
	r.mu.Lock()
	seen := r.phaseSeen&p != 0
	r.phaseSeen |= p
	r.mu.Unlock()
	if !seen {
		r.onPhase(PhaseEvent{Phase: p.String(), At: r.sched.Now(), Deadline: r.deadline})
	}
}

func (r *runner) getResolved(arcID int) (bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arcs[arcID].resolved, r.arcs[arcID].claimed
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

// onNote fans one notification about arc a's contract out to the incident
// parties within Δ: a.delay after the chain event. A Runner realizes the
// worst case exactly (a.delay is Δ) and leans on inclusive deadlines.
// Everywhere else real scheduling adds jitter on top of the delivery
// target, so targets sit a quarter-Δ inside the bound (detection strictly
// within Δ, as the paper's model allows): the protocol's deadline margins
// then scale with Δ instead of being a fixed tick count, which is what lets
// a loaded box widen Δ to buy robustness. The margin is per-chain: each
// chain's commitment-model timing decides it, and an Instant chain
// reproduces the historical spec.Delta margin exactly.
//
// On chains with delayed finality, parties still act on applied
// (provisional) events optimistically — that is what keeps the swap
// moving at chain speed — but an arc only RESOLVES when its closing
// transfer finalizes, and a revert re-applies records through the normal
// paths (with re-deliveries deduped, since behaviors already acted).
func (r *runner) onNote(a *arcRun, n chain.Notification) {
	// d is the delivery this note becomes, filled in per kind below.
	d := delivery{at: n.At.Add(a.delay), arc: int32(a.id)}
	switch n.Kind {
	case chain.NoteContractPublished:
		c, ok := n.Event.(chain.Contract)
		if !ok {
			return
		}
		r.notePublished(a, n.At)
		r.notePhase(phaseEscrow)
		d.kind = deliverContract
		if r.dupEvent(eventKey{kind: d.kind, arc: a.id}) {
			return // reorg re-publish: parties already saw this contract
		}
		a.contract = c
		r.schedule(d)
	case chain.NoteInvocation:
		switch ev := n.Event.(type) {
		case *htlc.UnlockedEvent:
			r.notePhase(phaseReveal)
			d.kind, d.arc, d.lock = deliverUnlock, int32(ev.ArcID), int32(ev.LockIndex)
			if r.dupEvent(eventKey{kind: d.kind, arc: ev.ArcID, lock: ev.LockIndex}) {
				return
			}
			d.slot = int32(len(r.keys))
			r.keys = append(r.keys, ev.Key)
			r.schedule(d)
		case *htlc.RedeemedEvent:
			r.notePhase(phaseReveal)
			d.kind, d.arc, d.slot = deliverRedeem, int32(ev.ArcID), int32(a.id)
			if r.dupEvent(eventKey{kind: d.kind, arc: ev.ArcID}) {
				return
			}
			a.redeemed = ev
			r.schedule(d)
		}
	case chain.NoteTransfer:
		claimed, ok := r.claimedBy(a, n.Contract)
		if !ok {
			return
		}
		d.kind, d.claimed = deliverSettled, claimed
		if !r.dupEvent(eventKey{kind: d.kind, arc: a.id, claimed: claimed}) {
			r.schedule(d)
		}
		if n.Provisional {
			return // resolution waits for the transfer to finalize
		}
		r.setResolved(a, claimed)
	case chain.NoteFinalized:
		if claimed, ok := r.claimedBy(a, n.Contract); ok {
			r.setResolved(a, claimed)
		}
	case chain.NoteReverted:
		if r.onRevert != nil {
			r.onRevert(RevertEvent{
				ArcID:    a.id,
				Chain:    n.Chain,
				Contract: n.Contract,
				Kind:     n.Reverted,
				At:       n.At,
			})
		}
	}
}

// claimedBy reads off arc a's chain whether the contract's asset now
// belongs to the arc's counterparty; ok is false if the contract is not
// (or, mid-reorg, no longer) published.
func (r *runner) claimedBy(a *arcRun, id chain.ContractID) (claimed, ok bool) {
	c, ok := a.ch.Contract(id)
	if !ok {
		return false, false
	}
	counter := r.spec.PartyOf(r.spec.D.Arc(a.id).Tail)
	owner, _ := a.ch.OwnerOf(c.AssetID())
	return owner == chain.ByParty(counter), true
}

// onBroadcast hands a leader's hashkey from the shared broadcast chain to
// every party of the swap it belongs to.
func (r *runner) onBroadcast(n chain.Notification) {
	if n.Kind != chain.NoteData {
		return
	}
	msg, ok := n.Event.(core.BroadcastMsg)
	if !ok || msg.Tag != r.spec.Tag {
		return // another swap's secret on the shared broadcast chain
	}
	r.notePhase(phaseReveal)
	slot := int32(len(r.keys))
	r.keys = append(r.keys, msg.Key)
	r.schedule(delivery{
		at: n.At.Add(r.bcastDelay), kind: deliverBroadcast, lock: int32(msg.LockIndex), slot: slot,
	})
}

// buildResult fills res, in the run record, for a run that ended at tick
// end.
func (r *runner) buildResult(end vtime.Ticks) {
	spec := r.spec
	triggered := cut(r.triggeredBuf[:], len(r.arcs))
	for id := range triggered {
		if settled, claimed := r.getResolved(id); settled {
			triggered[id] = claimed
			continue
		}
		c, ok := r.arcs[id].ch.Contract(spec.ContractID(id))
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
	escrows := cut(r.escrowBuf[:], len(r.arcs))[:0]
	for id := range r.arcs {
		a := &r.arcs[id]
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
		settleTick = end
	}
	report := outcome.Report(cut(r.classBuf[:], len(r.parties)))
	report.Fill(spec.D, triggered)
	r.res = Result{
		Triggered:  triggered,
		Report:     report,
		Registry:   r.reg,
		Log:        r.log,
		Escrows:    escrows,
		SettleTick: settleTick,
	}
}

// party is one participant. It has no goroutine: the scheduler's
// same-stripe serialization is its thread of control.
type party struct {
	runner   *runner
	vertex   digraph.Vertex
	behavior core.Behavior
	// htlc is the party's behavior when it conforms on classic HTLCs.
	htlc      core.ConformingHTLC
	envc      concEnv
	abandoned bool // touched only on the run's stripe
}

// env returns the party's cached Env. concEnv is stateless (one back
// pointer), and every callback of a party is serialized on the run's
// stripe, so one value per party serves all callbacks without allocating
// per delivery.
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

func (e *concEnv) chainOf(arcID int) *chain.Chain { return e.p.runner.arcs[arcID].ch }

func (e *concEnv) Contract(arcID int) (chain.Contract, bool) {
	return e.chainOf(arcID).Contract(e.p.runner.spec.ContractID(arcID))
}

func (e *concEnv) Resolved(arcID int) (bool, bool) {
	return e.p.runner.getResolved(arcID)
}

func (e *concEnv) Publish(arcID int) error {
	spec := e.p.runner.spec
	if spec.Kind == core.KindGeneral {
		sw, err := spec.NewSwap(arcID)
		if err != nil {
			return err
		}
		return e.publishContract(arcID, sw)
	}
	h, err := e.p.runner.newHTLC(arcID)
	if err != nil {
		return err
	}
	return e.publishContract(arcID, h)
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
		e.p.runner.failed.Add(1)
		return err
	}
	e.Note(trace.KindContractPublished, arcID, -1, "")
	return nil
}

// invoke calls a method of arcID's contract and, when the chain took the
// call, notes it on the trace.
func (e *concEnv) invoke(arcID int, method string, args any, size int, kind trace.Kind, lockIdx int, detail string) error {
	err := e.chainOf(arcID).Invoke(e.Party(), e.p.runner.spec.ContractID(arcID), method, args, size)
	if err != nil {
		e.p.runner.failed.Add(1)
		return err
	}
	e.Note(kind, arcID, lockIdx, detail)
	return nil
}

func (e *concEnv) Unlock(arcID, lockIdx int, key hashkey.Hashkey) error {
	args := &e.p.runner.unlock
	*args = htlc.UnlockArgs{LockIndex: lockIdx, Key: key}
	return e.invoke(arcID, htlc.MethodUnlock, args, args.WireSize(), trace.KindUnlocked, lockIdx, "")
}

func (e *concEnv) Redeem(arcID int, secret hashkey.Secret) error {
	args := &e.p.runner.redeem
	*args = htlc.RedeemArgs{Secret: secret}
	return e.invoke(arcID, htlc.MethodRedeem, args, args.WireSize(), trace.KindClaimed, -1, "redeemed")
}

// claimCallBytes is the modeled on-chain size of a claim or refund call.
const claimCallBytes = 16

func (e *concEnv) Claim(arcID int) error {
	if e.chainOf(arcID).Closed(e.p.runner.spec.ContractID(arcID)) {
		return chain.ErrContractClosed
	}
	return e.invoke(arcID, htlc.MethodClaim, nil, claimCallBytes, trace.KindClaimed, -1, "")
}

func (e *concEnv) Refund(arcID int) error {
	if e.chainOf(arcID).Closed(e.p.runner.spec.ContractID(arcID)) {
		return chain.ErrContractClosed
	}
	return e.invoke(arcID, htlc.MethodRefund, nil, claimCallBytes, trace.KindRefunded, -1, "")
}

func (e *concEnv) Broadcast(lockIdx int, key hashkey.Hashkey) {
	r := e.p.runner
	if r.bcast == nil {
		return
	}
	r.bcast.PublishData(e.Party(),
		fmt.Sprintf("secret for lock %d", lockIdx),
		core.BroadcastMsg{Tag: r.spec.Tag, LockIndex: lockIdx, Key: key}, key.WireSize())
	e.Note(trace.KindBroadcast, -1, lockIdx, "")
}

func (e *concEnv) At(t vtime.Ticks, a core.Alarm, arg int) {
	r := e.p.runner
	slot := int32(len(r.alarms))
	r.alarms = append(r.alarms, alarmEntry{a: a, arg: arg})
	r.schedule(delivery{at: t, kind: deliverAlarm, slot: slot})
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
