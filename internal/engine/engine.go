// Package engine turns the one-shot swap protocol into a long-running
// clearing service: a continuous stream of offers flows in, a periodic
// clearing loop matches them into disjoint swap digraphs (Section 4.2
// market clearing, batched), and many swaps run concurrently on one
// scheduler over one shared chain registry. Per-swap asset reservation
// guarantees that two in-flight swaps never commit the same asset, and an
// aggregate metrics layer reports service-level throughput: offers/sec,
// swaps/sec, end-to-end latency, and per-outcome counts.
//
// The pipeline is
//
//	Submit → intake event → pending book → clearing round → reservation →
//	       conc.Prepare over shared chains → horizon delivery: release,
//	       settle orders
//
// Submit is safe from any goroutine: it only posts the order, and every
// later stage runs on the scheduler's timeline (see Engine.Submit). With
// Config.Shards > 1 one Engine partitions that pipeline by asset chain
// across shard units, plus a coordinator unit for what spans shards (see
// Engine and DESIGN.md §11).
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Config parameterizes an Engine. The zero value is usable: 8 workers,
// 2ms clearing interval, 1ms ticks, Δ = core.DefaultDelta.
type Config struct {
	// Workers sizes the dispatch helpers of the engine's own scheduler
	// (Parallel or paced), the verify cache's batch pool, and the MaxLive
	// default.
	Workers int
	// ClearInterval is the period of the batch clearing loop, in wall
	// time. It is converted to scheduler ticks (see ClearEvery): the
	// clearing loop runs on the engine's shared scheduler, not on a
	// wall-clock ticker, so under virtual time clearing rounds land at
	// deterministic ticks interleaved with arrivals and protocol events.
	ClearInterval time.Duration
	// ClearEvery, when positive, sets the clearing cadence directly in
	// virtual ticks, overriding the ClearInterval/Tick conversion.
	ClearEvery vtime.Duration
	// MaxBatch caps the offers considered per clearing round.
	MaxBatch int
	// Tick is the wall duration of one tick of a paced engine's clock. On a
	// free clock it only converts rates and ClearInterval to ticks.
	Tick time.Duration
	// Delta is the per-swap Δ in ticks: the paper's fixed synchrony bound.
	Delta vtime.Duration
	// Kind forces one protocol variant on every swap. The zero value picks
	// per cleared component from its leader set: one leader runs the
	// Section 4.6 hashlock staircase (core.KindSingleLeader — no hashkeys,
	// no signatures), anything else the hashkey protocol (KindGeneral).
	Kind core.Kind
	// AdversaryRate injects a silent leader into this fraction of swaps:
	// the swap aborts and every conforming party refunds, exercising the
	// abort path under load. Ignored when Behaviors is set.
	AdversaryRate float64
	// Behaviors, when set, builds the (possibly deviating) behaviors for
	// every cleared swap — the scenario harness's deviation-injection
	// hook. It must be a pure function of its arguments (it may be called
	// from any goroutine, and deterministic replay depends on it): derive
	// randomness from the seed, never from shared state.
	Behaviors BehaviorFactory
	// Seed roots every seeded draw: party keys, and each swap's secrets
	// and adversary draw, derived from (Seed, name) by core.Derive.
	Seed int64

	// Deterministic runs the engine on a free clock — a one-worker
	// sched.NewVirtual, whose dispatcher runs every stripe itself with no
	// helper, and whose ticks advance as fast as callbacks drain, so
	// swaps stop waiting out Δ-scaled deadlines in wall time, throughput
	// becomes CPU-bound, and the protocol sees the same tick arithmetic.
	// A free clock is also what makes a run seed-replayable: the clock is
	// born held and does not move until the run is installed, same-tick
	// events run in schedule order, swap setup is pinned inside the
	// clearing tick, and deliveries execute inside their scheduler events,
	// so the same seed and the same offer stream produce the identical run
	// — intake ticks, clearing rounds, and settle order.
	// Submit is safe from any goroutine, and an order books at the tick of
	// the intake event that takes it, in posting order: the stream is the
	// same whenever its posting order is (scheduler callbacks, one
	// goroutine, or a Hold around the fill). With neither this nor Parallel the
	// clock is paced by the wall, one tick per Tick (sched.NewPaced over
	// Workers). The engine owns its scheduler's dispatcher goroutine, and
	// Stop (valid even if Start was never called) releases it.
	Deterministic bool
	// Parallel is Deterministic on a sched.NewVirtual of Workers workers:
	// the same dispatch path, which stripes each (tick, level) batch by swap
	// behind a barrier, with min(Workers, GOMAXPROCS) − 1 helpers to share
	// the stripes — each swap sees the sequence it sees with none, so
	// digests stay byte-identical to plain Deterministic runs, while
	// independent swaps use every core. See DESIGN.md §10 for the
	// determinism argument.
	Parallel bool
	// Store, when set, receives a write-ahead Event for every durable
	// state transition: mints, bookings, clearings,
	// reservations, phase transitions, settles, rejections, sheds. nil
	// keeps the engine fully in-memory — the historical behavior, and the
	// tier-1 test configuration. See internal/durable for the
	// disk-backed implementation and Recover for the way back.
	Store Store
	// MaxLive overrides the live-run gate: how many swaps may be in flight
	// on the scheduler at once, after which rounds leave the book alone.
	// The default is 16×Workers on either clock (the empirical throughput
	// knee — see DESIGN.md §10). The gate keeps a deep book from being
	// cleared all at once, which bounds the shared chains' observer fanout.
	// Tests that need a clear-everything burst (e.g. "crash with ≥N swaps
	// mid-air") set it at least as high as the burst.
	MaxLive int
	// Commitment selects the chains' commitment model: zero value keeps
	// every chain Instant (a record is final the tick it lands — the
	// historical behavior, byte-identical digests). A positive
	// ConfirmDepth makes records final only after that many ticks, and a
	// positive ReorgRate on top makes not-yet-final records revert with
	// that seeded probability. See internal/chain and DESIGN.md §12.
	Commitment CommitmentConfig
	// Shards partitions clearing by asset chain into this many shard units
	// (0 and 1 both build the plain engine: one unit, no coordinator). With
	// more than one, a coordinator unit clears what spans shards, and
	// Workers is the whole budget, which each unit shares for its MaxLive
	// default. See Engine.
	Shards int
}

// CommitmentConfig parameterizes the commitment model every asset chain
// is created with. The zero value is the Instant model (historical
// behavior). The broadcast side-channel is always Instant regardless —
// it is the protocol's own gossip medium, not a modeled ledger.
type CommitmentConfig struct {
	// ConfirmDepth, when positive, makes records final only this many
	// ticks after application (chain.Depth), and raises each chain's
	// effective Δ — and therefore the swap timelock ladder — by the same
	// amount.
	ConfirmDepth vtime.Duration
	// ReorgRate, with ConfirmDepth ≥ 2, independently reverts each
	// record with this probability at a seeded depth before it finalizes
	// (chain.Reorg). 0 means no reorgs.
	ReorgRate float64
	// Seed drives the reorg fate hash (chains replay identical revert
	// schedules from the same seed).
	Seed int64
}

// Enabled reports whether any non-Instant model is configured.
func (c CommitmentConfig) Enabled() bool { return c.ConfirmDepth > 0 }

// Model returns the commitment model for the named chain, or nil to
// leave it Instant.
func (c CommitmentConfig) Model(name string) chain.CommitmentModel {
	if !c.Enabled() || name == core.BroadcastChain {
		return nil
	}
	if c.ReorgRate > 0 {
		return chain.Reorg{K: c.ConfirmDepth, Rate: c.ReorgRate, Seed: c.Seed}
	}
	return chain.Depth{K: c.ConfirmDepth}
}

// Engine errors.
var (
	ErrNotRunning    = errors.New("engine: not accepting offers")
	ErrBadOffer      = errors.New("engine: malformed offer")
	ErrAssetMismatch = errors.New("engine: offer amount differs from the registered asset")
)

type engineState int

const (
	stateNew engineState = iota
	stateRunning
	stateDraining
	stateStopped
)

// SwapBehaviors is one cleared swap's behavior assignment: overrides for
// deviating parties (conforming defaults apply elsewhere) plus the
// deviation name per deviating vertex, for per-outcome accounting.
type SwapBehaviors struct {
	Behaviors map[digraph.Vertex]core.Behavior
	Deviants  map[digraph.Vertex]string
}

// BehaviorFactory builds the behaviors for one cleared swap from its
// setup and deterministic per-swap seed. See Config.Behaviors.
type BehaviorFactory func(setup *core.Setup, seed int64) SwapBehaviors

// job is one cleared swap: what its horizon delivery settles. It is the
// run's conc.Settler, so handing it over costs no closure.
type job struct {
	e        *unit
	swapID   string
	setup    *core.Setup
	orders   []*order
	resv     []resvKey
	deviants map[digraph.Vertex]string
	// secrets is the swap's secret stream (see clearGroup).
	secrets core.Stream
	// orderBuf and resvBuf back orders and resv for a swap of up to
	// jobInline parties and arcs, so a ring's job is one allocation.
	orderBuf [jobInline]*order
	resvBuf  [jobInline]resvKey
}

// jobInline is how many orders and reservations a job holds inline.
const jobInline = 4

// cut returns the first n elements of buf when they fit, else a fresh
// slice of n.
func cut[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
}

// release lets go of the reservations j holds.
func (j *job) release() {
	for _, r := range j.resv {
		j.e.reg.Release(r.chain, r.asset, j.swapID)
	}
}

// Settle implements conc.Settler.
func (j *job) Settle(res *conc.Result) { j.e.settle(j, res) }

type resvKey struct {
	chain string
	asset chain.AssetID
}

// Minted is one asset put into existence on a chain — at intake, or by a
// recovery's re-mint: what the conservation audit checks.
type Minted struct {
	Chain  string
	Asset  chain.AssetID
	Amount uint64
}

// unit is one clearing unit of an Engine — a shard, or the coordinator:
// its order book, its clearing loop on its own stripe, the settle of the
// swaps it clears and, on the coordinator, the intake of escalated orders.
// A one-shard Engine is one unit.
//
// Unit state is written on the scheduler's timeline only: Submit posts an
// order, and the host's intake event books it at level 0 of the tick (see
// Engine.Submit). e.mu guards that state — the order map, the book and the
// posted counts — against outside readers and against the stripes of one
// batch that reach it at once (an intake event and a settle).
type unit struct {
	cfg Config
	// stripe keys this unit's clearing ticks on the shared scheduler:
	// clearing passes of distinct shards may run concurrently on dispatch
	// helpers while each shard's own pass stays serialized. A one-shard
	// engine clears on stripe 0.
	stripe uint64
	// shardOf maps a chain name to its shard. Set on the coordinator only,
	// which clears at tail level 3 rather than 1 and whose AC3 prepare
	// records say how many shards a swap spans (see clearGroup).
	shardOf func(chainName string) int
	// onIntake, when set, runs inside the intake event after a posted order
	// leaves intake on this unit, booked or rejected: a shard wakes the
	// escalation sweep with it, so the sweep takes a booked order and a
	// drain waiting on the sweep's park hears a rejected one.
	onIntake func()
	// intake is the host's.
	intake *intake
	// maxLive caps live runs (see liveRuns and Config.MaxLive): enough
	// concurrency to saturate the stripe pool, bounded so observer fanout
	// stays flat.
	maxLive int
	reg     *chain.Registry
	// sched is the one scheduler everything runs on: grid-aligned clearing
	// rounds, swap setup inside the clearing tick, live-run gating, parking.
	// The unit reads nothing off it but Now, which is the tick a callback
	// was dispatched at on either clock.
	sched *sched.Virtual
	agg   *metrics.Aggregate

	// keyring holds every party's persistent signing identity, derived
	// from Seed and the party's name on its first hashkey swap.
	keyring *core.Keyring
	// vcache is the engine-wide hashkey verification cache shared by every
	// swap's contracts (content-addressed, so cross-swap sharing is safe).
	vcache *hashkey.VerifyCache
	// tracer is the engine-wide trace flight recorder: one fixed-size ring
	// shared by every swap run, so per-swap trace state costs nothing.
	tracer *trace.Log
	// shapes compiles each labelled swap digraph once: leaders, diameter
	// bound and timelock ladder are a function of the shape, and a clearing
	// service sees the same few shapes over and over (core.ShapeCache).
	shapes *core.ShapeCache

	// drainCh wakes drain and stop the moment the unit may have gone
	// idle (an order booked or rejected at intake, liveRuns reached zero,
	// book emptied, the clearing loop parked, or Kill).
	drainCh chan struct{}

	// clearing is the clearing loop: clearTick, once per ClearEvery on the
	// shared scheduler. The loop parks when the unit goes idle (empty
	// book, nothing live) and a booking wakes it: parked rounds are exactly
	// the rounds the active-round count never included, so digests are
	// unaffected — but a free clock stops running, instead of burning CPU
	// on empty rounds until Drain notices at wall speed.
	clearing *sched.Loop

	// liveRuns counts live swap runs: incremented when a swap is
	// dispatched, before its orders leave the book, and decremented at the
	// end of settle, inside the run's horizon delivery — so on a free clock
	// the count read by a clearing tick is a pure function of the schedule.
	// Clearing rounds gate dispatch on it: an unbounded pile of live runs
	// makes the shared chains' per-record observer fanout O(live runs) —
	// quadratic over a big book. Drain, Stop, InFlight and the
	// conservation audit read it too.
	liveRuns atomic.Int64

	mu     sync.Mutex
	orders map[OrderID]*order
	// orderChunk is what is left of the chunk new orders are cut from
	// (newOrder).
	orderChunk []order
	// book holds exactly the StatusPending orders: an order is added when
	// it is booked and removed the moment it is dispatched, rejected or
	// escalated. Its per-party counts are the fair-shedding surface
	// (PendingOf/PendingParties): one flooding identity pool cannot exhaust
	// a global MaxPending budget for everyone.
	book book
	// posted counts the orders posted to intake and not yet booked, and
	// postedOf splits the count by party: Pending, PendingOf and
	// PendingParties count them with the book, so a shed decision sees an
	// order from the moment Submit returns.
	posted    int
	postedOf  map[chain.PartyID]int
	nextOrder OrderID
	minted    []Minted
	// killed marks a crash-model shutdown (Kill): intake and clearing are
	// dead, but pending orders are deliberately left unresolved — they are
	// the recovery subsystem's input, not Drain's.
	killed bool

	// round is clearRound's working memory, kept from one round to the
	// next and confined to the clearing tick (clearTick → clearRound →
	// clearGroup, sequential by construction): never touch it from Submit,
	// a run's deliveries, or any other goroutine. contended says a
	// group of this round found an asset reserved by a swap in flight.
	round struct {
		batch       []*order
		offers      []core.Offer
		group       []core.Offer
		partitioner core.Partitioner
		contended   bool
		// tags is the chunk swap tags are spelled into (swapTag).
		tags strings.Builder
	}
	// roundTicks records the tick of every active clearing round: one that
	// had live work and kept the loop armed — a dispatch, live runs, a
	// reservation conflict, or a book it emptied. It leaves out the round
	// that parks, whether it found the unit idle or its book stuck — a
	// stuck order's last look lands wherever the unit holding it goes
	// quiet, which on a sharded engine is not where the plain one goes
	// quiet. Engine.ClearRounds merges the units' tick sets, a pure
	// function of the schedule on a free clock, so digests and budget
	// assertions are built from it. Confined to the clearing tick like
	// round; read after Stop.
	roundTicks []vtime.Ticks
}

// withDefaults fills every unset knob with its default — the one place
// they are defined: New applies it, and every unit and the host read the
// same resolution.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.ClearInterval <= 0 {
		cfg.ClearInterval = 2 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.Delta <= 0 {
		cfg.Delta = core.DefaultDelta
	}
	if cfg.Kind == 0 {
		cfg.Kind = core.KindByLeaders
	}
	if cfg.ClearEvery <= 0 {
		cfg.ClearEvery = vtime.Duration(cfg.ClearInterval / cfg.Tick)
		if cfg.ClearEvery < 1 {
			cfg.ClearEvery = 1
		}
	}
	return cfg
}

// newUnit builds a unit of e over its host, clearing on stripe. shardOf is
// the coordinator's: set, the unit clears at tail level 3 instead of 1.
func newUnit(e *Engine, cfg Config, stripe uint64, shardOf func(string) int) *unit {
	h := &e.host
	u := &unit{
		cfg:      cfg,
		stripe:   stripe,
		shardOf:  shardOf,
		intake:   h.intake,
		sched:    h.Scheduler,
		reg:      h.Registry,
		keyring:  h.Keyring,
		vcache:   h.Cache,
		tracer:   h.Tracer,
		agg:      metrics.NewAggregate(),
		shapes:   new(core.ShapeCache),
		orders:   make(map[OrderID]*order),
		book:     newBook(),
		postedOf: make(map[chain.PartyID]int),
		drainCh:  make(chan struct{}, 1),
	}
	level := int8(1)
	if shardOf != nil {
		level = 3
	}
	if u.maxLive = cfg.MaxLive; u.maxLive <= 0 {
		u.maxLive = 16 * cfg.Workers
	}
	// The clearing loop ticks on the shared scheduler, not on a wall-clock
	// ticker: clearing rounds land at fixed ticks, interleaved with
	// arrivals and protocol events in schedule order —
	// and at tail level, so a round runs only after every protocol event
	// of its tick has fully drained, which gives serialized and
	// striped-parallel dispatch the identical pre-clearing state.
	u.clearing = sched.NewLoop(u.sched, cfg.ClearEvery, level, stripe, u.clearTick)
	return u
}

// validateOffer is Submit's static (state-free) intake check.
func validateOffer(offer core.Offer) error {
	if len(offer.Give) == 0 || offer.Party == "" {
		return fmt.Errorf("%w: empty offer or party", ErrBadOffer)
	}
	dup := make(map[resvKey]bool, len(offer.Give))
	for _, tr := range offer.Give {
		if tr.To == offer.Party {
			return fmt.Errorf("%w: self transfer", ErrBadOffer)
		}
		if tr.To == "" || tr.Chain == "" || tr.Asset == "" || tr.Amount == 0 {
			return fmt.Errorf("%w: incomplete transfer", ErrBadOffer)
		}
		// One asset can back only one transfer: catching this at intake
		// keeps a malformed offer from dragging matched counterparties
		// into a swap that cannot publish.
		k := resvKey{chain: tr.Chain, asset: tr.Asset}
		if dup[k] {
			return fmt.Errorf("%w: asset %s/%s offered twice", ErrBadOffer, tr.Chain, tr.Asset)
		}
		dup[k] = true
	}
	return nil
}

// post records a validated offer as pending order id and appends it to the
// host's intake, whose one event books it (admit).
func (e *unit) post(id OrderID, offer core.Offer) {
	now := time.Now()
	e.mu.Lock()
	o := e.newOrder()
	*o = order{id: id, offer: offer, status: StatusPending, submittedAt: now, e: e}
	e.nextOrder = id
	e.orders[id] = o
	e.posted++
	e.postedOf[offer.Party]++
	e.intake.post(o)
	e.mu.Unlock()
}

// intake is a host's posted orders and the one event that admits them, in
// posting order across every unit: the units share one chain registry, so
// which offer of an asset mints it, and which one the ledger then
// contradicts, must not depend on how a sharded engine's units interleave.
// The event runs at level 0 of the tick it was queued in, on stripe key 0. The host owns the event and
// both lists, as sched.Loop owns its rounds, so a post allocates nothing
// once the lists have grown.
type intake struct {
	v  *sched.Virtual
	ev sched.Event // queued exactly while posted is non-empty

	mu     sync.Mutex
	posted []*order
	run    []*order // the list the event admits; only the event touches it
}

// post appends o and queues the event if o is the first order since the
// event last took the list. Engine.Submit posts under its mutex, so
// posting order is ID order.
func (in *intake) post(o *order) {
	in.mu.Lock()
	if in.posted = append(in.posted, o); len(in.posted) == 1 {
		in.v.Schedule(&in.ev, 0, 0, 0, in) // tick 0 is never ahead: the current tick
	}
	in.mu.Unlock()
}

// Fire is the intake event, the scheduler's entry point (Handler): it takes
// the posted list and admits each order on the unit it was posted to. A
// post while it runs queues the event again; the dispatcher is done with an
// event once its Fire has begun, and intake events never overlap.
func (in *intake) Fire() {
	in.mu.Lock()
	in.posted, in.run = in.run[:0], in.posted
	in.mu.Unlock()
	for i, o := range in.run {
		o.e.admit(o)
		in.run[i] = nil
	}
}

// admit books one posted order, inside the intake event: it mints the
// assets it deposits for the first time, stamps the booking tick, books
// the order and wakes the clearing loop. An offer the ledger contradicts is
// rejected instead, with the reason; a mint it made before the
// contradiction stays, as it is reused.
func (e *unit) admit(o *order) {
	now := e.sched.Now()
	e.mu.Lock()
	e.posted--
	if n := e.postedOf[o.offer.Party] - 1; n > 0 {
		e.postedOf[o.offer.Party] = n
	} else {
		delete(e.postedOf, o.offer.Party)
	}
	if err := e.deposit(o.offer, now); err != nil {
		o.status, o.reason = StatusRejected, err.Error()
		e.logEvent(Event{Kind: EvRejected, Tick: now, Order: o.id, Reason: o.reason, Offer: &o.offer})
		e.agg.AddRejected(1)
	} else {
		o.submittedTick = now
		e.book.add(o)
		e.logEvent(Event{Kind: EvBooked, Tick: now, Order: o.id, Offer: &o.offer})
		e.clearing.Wake()
	}
	e.mu.Unlock()
	e.agg.AddSubmitted(1)
	if f := e.onIntake; f != nil {
		f()
	}
	e.notifyDrain()
}

// deposit mints the offer's unseen assets under its party (deposit on
// intake) and checks known ones against the ledger. Ownership is enforced
// later, at reservation time, so an offer whose asset is tied up in an
// earlier swap waits instead of failing. Called with e.mu held.
func (e *unit) deposit(offer core.Offer, now vtime.Ticks) error {
	for _, tr := range offer.Give {
		ch := e.reg.Chain(tr.Chain)
		if a, ok := ch.Asset(tr.Asset); ok {
			if a.Amount != tr.Amount {
				return fmt.Errorf("%w: %s/%s has amount %d, offer says %d",
					ErrAssetMismatch, tr.Chain, tr.Asset, a.Amount, tr.Amount)
			}
			continue
		}
		if err := ch.RegisterAsset(chain.Asset{ID: tr.Asset, Amount: tr.Amount}, offer.Party); err != nil {
			return fmt.Errorf("engine: minting %s/%s: %w", tr.Chain, tr.Asset, err)
		}
		e.minted = append(e.minted, Minted{Chain: tr.Chain, Asset: tr.Asset, Amount: tr.Amount})
		e.logEvent(Event{
			Kind: EvMinted, Tick: now,
			Chain: tr.Chain, Asset: tr.Asset, Amount: tr.Amount,
			Party: string(offer.Party),
		})
	}
	return nil
}

// escalate is the escalation protocol, called on the coordinator by the
// escalation sweep, on the timeline: it runs at its own tail level,
// after every shard's clearing pass of the tick and before the
// coordinator's. It withdraws every order booked on the shards at or
// before the cutoff tick and books it here, in global ID order, so that the
// coordinator's book does not depend on the shard count. An order moves
// whole, with its ID and original submit instants, so its escalation age
// and digest row do not depend on how many hops it took; it leaves its
// shard's book and order map before it joins these, so the merged order set
// never shows it twice; and re-booking an order the deployment accepted is
// not gated by intake state. It returns how many orders the shard books
// still hold.
func (e *unit) escalate(shards []*unit, cutoff vtime.Ticks) (left int) {
	var moved []*order
	for _, sh := range shards {
		n := len(moved)
		sh.mu.Lock()
		if !sh.killed {
			sh.book.takeThrough(cutoff, func(o *order) {
				moved = append(moved, o)
				delete(sh.orders, o.id)
			})
		}
		rest := sh.book.len()
		sh.mu.Unlock()
		// The submitted counts follow the order, so the merged report
		// counts it once.
		sh.agg.AddSubmitted(n - len(moved))
		if rest == 0 {
			sh.notifyDrain()
		}
		left += rest
	}
	if len(moved) == 0 {
		return left
	}
	slices.SortFunc(moved, func(a, b *order) int { return cmp.Compare(a.id, b.id) })
	e.mu.Lock()
	for _, o := range moved {
		e.nextOrder = max(e.nextOrder, o.id)
		e.orders[o.id] = o
		e.book.add(o)
		e.logEvent(Event{Kind: EvBooked, Tick: o.submittedTick, Order: o.id, Offer: &o.offer})
	}
	e.mu.Unlock()
	e.agg.AddSubmitted(len(moved))
	e.clearing.Wake()
	return left
}

// order returns a snapshot of one order's state, if the unit holds it.
func (e *unit) order(id OrderID) (OrderSnapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o, ok := e.orders[id]
	if !ok {
		return OrderSnapshot{}, false
	}
	return o.snapshot(), true
}

// snapshots snapshots every order the unit holds, in ID order.
func (e *unit) snapshots() []OrderSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]OrderSnapshot, 0, len(e.orders))
	for id := OrderID(1); id <= e.nextOrder; id++ {
		if o, ok := e.orders[id]; ok {
			out = append(out, o.snapshot())
		}
	}
	return out
}

// noteShed records n arrivals shed before intake, from party when known
// (see Engine.NoteShed).
func (e *unit) noteShed(party chain.PartyID, n int) {
	e.agg.AddShed(n)
	e.logEvent(Event{Kind: EvShed, Tick: e.sched.Now(), Count: n, Party: string(party)})
}

// pendingOf reports how many of the named party's orders are pending:
// booked, or posted and not yet booked.
func (e *unit) pendingOf(party chain.PartyID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.book.of(party) + e.postedOf[party]
}

// pendingParties reports how many distinct parties have pending orders,
// booked or posted.
func (e *unit) pendingParties() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.book.partyCount()
	for p := range e.postedOf {
		if e.book.of(p) == 0 {
			n++
		}
	}
	return n
}

// clearTick is one round of the batch clearing service: it partitions
// the pending book into executable swaps. The return value says whether to
// keep the loop armed: a unit with nothing to do parks instead (a
// booking wakes it; see clearing).
func (e *unit) clearTick() bool {
	// Liveness: the book is non-empty, or swaps this unit dispatched are
	// still live (liveRuns is decremented when a run settles in its horizon
	// delivery, at level 0 of its tick — before any clearing tick of the
	// same tick reads the count, so the gate is a pure function of the
	// schedule). Once both are zero the unit's own run is over — so
	// anything that must replay identically (the active-round count) is
	// gated on it, and the loop parks rather than spin empty rounds on a
	// free clock until Drain notices at wall speed.
	// The unit's OWN liveness, not the global queue: on a shared sharded
	// scheduler the queue holds every other shard's events, and a per-shard
	// gate must not read cross-shard state (it would also be racy across
	// concurrently-running shard stripes).
	live := int(e.liveRuns.Load())
	if e.booked() > 0 || live > 0 {
		if e.clearRound(e.maxLive-live) || e.round.contended || live > 0 || e.booked() == 0 {
			e.roundTicks = append(e.roundTicks, e.sched.Now())
			return true
		}
		// Stuck book: offers that cannot form a swap (partial rings left
		// by shedding) with nothing live. Nothing about the next round can
		// differ until a new order books, so spinning would only burn
		// wall-dependent rounds — the digest's determinism hangs on parking
		// here, and like the idle round, this one is not counted active.
		// A booking re-arms; Drain rejects a book still stuck at drain time.
		// A reservation conflict is not stuck: the holder releases the asset
		// when its run settles, and the next round finds it free.
	}
	// No re-check after the park: orders book at level 0 of a tick (admit)
	// or, on the coordinator, at the sweep's level 2 — never during this
	// round — and the booking wakes the loop after it.
	e.clearing.Park()
	e.notifyDrain()
	return false
}

// clearRound runs one clearing pass that may dispatch up to capSwaps swaps
// — what the live-run gate leaves free — and reports whether it dispatched
// any. Keeping live runs bounded also keeps the shared chains' per-record
// observer fanout O(MaxLive), not O(book).
func (e *unit) clearRound(capSwaps int) bool {
	e.round.contended = false
	// When the gate is saturated there is no point partitioning a batch at
	// all: a gated round can dispatch nothing anyway.
	if capSwaps <= 0 {
		return false
	}
	// Take only what this round can plausibly dispatch: groups are small (a
	// handful of offers each), so 8 offers per free slot — floored so thin
	// capacity still sees enough of the book to form matches — keeps
	// partitioning O(capacity), not O(parties). Offers beyond the window
	// just wait for a later round.
	limit := min(max(8*capSwaps, 64), e.cfg.MaxBatch)
	for {
		dispatched, whole := e.clearWindow(limit, capSwaps)
		// A window that matched nothing says nothing about the book behind
		// it: what cannot match — partial rings, offers whose counterparty
		// was rejected — collects at the head of a FIFO book. Look further
		// before the round counts as fruitless: clearTick parks a stuck
		// book on that verdict and Drain rejects it.
		if dispatched > 0 || e.round.contended || whole || limit >= e.cfg.MaxBatch {
			return dispatched > 0
		}
		limit = min(2*limit, e.cfg.MaxBatch)
	}
}

// clearWindow partitions the first limit candidates of the book, dispatches
// up to capSwaps of the groups found, and reports how many, and whether the
// window was the whole book.
func (e *unit) clearWindow(limit, capSwaps int) (dispatched int, whole bool) {
	// One offer per party per round: a party's later orders wait for its
	// earlier ones, which also serializes conflicting same-asset offers.
	e.mu.Lock()
	if e.book.len() < 2 {
		// Nothing can match — most rounds of a loaded free-clock run find
		// the book momentarily empty.
		e.mu.Unlock()
		return 0, true
	}
	batch := e.book.batch(e.round.batch[:0], limit)
	e.mu.Unlock()
	offers := e.round.offers[:0]
	for _, o := range batch {
		offers = append(offers, o.offer)
	}
	e.round.batch, e.round.offers = batch, offers
	whole = len(batch) < limit
	if len(batch) < 2 {
		return 0, whole
	}

	b, err := e.round.partitioner.Partition(offers)
	if err != nil {
		// Cannot happen for submit-validated offers; reject defensively
		// rather than spinning on a poisoned batch.
		e.rejectOrders(batch, "clearing: "+err.Error())
		return 0, true
	}
	for _, g := range b.Groups {
		if dispatched == capSwaps {
			break // the gate is full: leave the rest pending for later rounds
		}
		if e.clearGroup(g) {
			dispatched++
		}
	}
	return dispatched, whole
}

// swapTag names the swap with sequence number seq exactly as fmt's
// "swap-%06d" would: zero-padded to six digits, longer past them. The
// digits are written back to front into a stack buffer and appended to
// tags, the round's tag chunk, so a tag costs no allocation of its own. A
// builder only ever appends, so a tag cut from it stays valid whatever is
// written after; a spent chunk is left to the tags that still hold it and
// a fresh one begun. Only a reservation and a prepare record keep this
// string: core spells the tag again as the prefix of the swap's
// contract-ID string, which is the copy the job and the orders keep.
func swapTag(tags *strings.Builder, seq uint64) string {
	var buf [maxSwapTag]byte
	at := len(buf)
	for digits := 0; digits < 6 || seq > 0; digits++ {
		at--
		buf[at] = byte('0' + seq%10)
		seq /= 10
	}
	at -= len("swap-")
	copy(buf[at:], "swap-")
	if tags.Cap()-tags.Len() < len(buf)-at {
		*tags = strings.Builder{}
		tags.Grow(tagChunk)
	}
	start := tags.Len()
	tags.Write(buf[at:])
	return tags.String()[start:]
}

// maxSwapTag is the longest swap tag, "swap-" and the 20 digits of the
// largest sequence number; tagChunk is the bytes of one tag chunk, a size
// class of its own, which holds 93 tags of 11 bytes.
const (
	maxSwapTag = len("swap-") + 20
	tagChunk   = 1024
)

// clearGroup reserves a matched group's assets, clears it into a swap
// setup, and starts its run, which settles itself at its horizon (settle).
// The group is given as indexes into this round's batch and offers.
// Returns false if the group must wait (reservation contention) or was
// rejected.
func (e *unit) clearGroup(members []int) bool {
	// One identity rule on every engine: tag, seed, and stripe derive from
	// the minimum order ID in the group. Order IDs are unique (on a sharded
	// deployment, router-assigned) and arrival-ordered, so the identity is
	// the same whichever engine clears the group — plain, shard,
	// coordinator — which is what lets a 4-shard, a 1-shard and a plain run
	// of the same scenario produce byte-identical digests; and distinct
	// concurrent groups never share a stripe. A resumed group re-clears
	// under the tag it had before the crash (see durable.State.Resolve).
	//
	// The job is built first: its orders and reservations are cut from its
	// own buffers, and the group's offers are gathered, for core.Clear,
	// into the round's buffer, which Clear does not keep.
	j := &job{e: e}
	group := cut(j.orderBuf[:], len(members))
	g := e.round.group[:0]
	var seq uint64
	gives := 0
	for k, i := range members {
		o := e.round.batch[i]
		group[k] = o
		g = append(g, o.offer)
		if id := uint64(o.id); seq == 0 || id < seq {
			seq = id
		}
		gives += len(o.offer.Give)
	}
	e.round.group = g
	swapID := swapTag(&e.round.tags, seq)
	seed := e.cfg.Seed + int64(seq)
	j.swapID, j.orders = swapID, group

	held := cut(j.resvBuf[:], gives)[:0]
	for k, o := range g {
		for _, tr := range o.Give {
			if err := e.reg.Reserve(tr.Chain, tr.Asset, o.Party, swapID); err != nil {
				j.resv = held
				j.release()
				if errors.Is(err, chain.ErrAssetReserved) {
					// Another in-flight swap holds it; the whole group
					// retries next round.
					e.agg.AddReservationConflict()
					e.round.contended = true
					return false
				}
				// The asset was spent or never owned: this offer can never
				// execute. Reject it; the rest of the group rematches.
				e.rejectOrders(group[k:k+1], err.Error())
				return false
			}
			held = append(held, resvKey{chain: tr.Chain, asset: tr.Asset})
		}
	}
	j.resv = held
	if e.shardOf != nil && e.cfg.Store != nil {
		// AC3 prepare record: every involved asset is now reserved (the
		// shared registry's reservation table spans all shards), but the
		// swap is not yet committed — that is EvCleared, below. A crash
		// between the two folds back to pending orders; the reservations
		// die with the process, so the prepare is implicitly refunded and
		// the orders resume and re-clear after recovery.
		spans := make(map[int]bool, len(held))
		for _, r := range held {
			spans[e.shardOf(r.chain)] = true
		}
		e.logEvent(Event{
			Kind: EvPrepared, Tick: e.sched.Now(),
			Swap: swapID, Orders: orderIDs(group), Count: len(spans),
		})
	}

	// rejectGroup is the shared recovery path for a group that cleared
	// structurally but cannot run: drop the reservations, reject every
	// member.
	rejectGroup := func(reason string) {
		j.release()
		e.rejectOrders(group, reason)
	}

	delta := e.cfg.Delta
	// Under a commitment model each chain's effective Δ includes its
	// confirmation depth: the timelock ladder must wait out finality,
	// not just delivery. Only chains whose effective Δ differs from the
	// base carry an entry, and the map stays nil under Instant — core's
	// historical single-Δ arithmetic is untouched byte-for-byte.
	var chainDeltas map[string]vtime.Duration
	if e.cfg.Commitment.Enabled() {
		for _, r := range held {
			if _, dup := chainDeltas[r.chain]; dup {
				continue
			}
			if eff := e.reg.Chain(r.chain).Timing().EffectiveDelta(delta); eff != delta {
				if chainDeltas == nil {
					chainDeltas = make(map[string]vtime.Duration)
				}
				chainDeltas[r.chain] = eff
			}
		}
	}

	// Every draw a swap makes is derived from (Seed, tag): it depends on
	// no other swap, whatever cleared before it or on which unit.
	j.secrets = core.Derive(e.cfg.Seed, core.DomainSecrets, swapID)
	setup, err := core.Clear(g, core.Config{
		Kind:        e.cfg.Kind,
		Tag:         swapID,
		Delta:       delta,
		ChainDeltas: chainDeltas,
		Rand:        &j.secrets,
		Keyring:     e.keyring,
		Cache:       e.vcache,
		Shapes:      e.shapes,
	})
	if err != nil {
		rejectGroup("clearing: " + err.Error())
		return false
	}
	// From here on the swap is named by the spec's tag, the one spelling
	// that lives as long as its contracts.
	swapID = setup.Spec.Tag
	j.swapID = swapID

	// Swap setup happens inside the clearing tick, on the scheduler's
	// dispatcher (or this shard's stripe): the protocol start is pinned
	// relative to this round's tick, so on a free clock the whole run is a
	// pure function of the arrival schedule and the seed. Its horizon
	// delivery settles the books.
	adversarial := false
	if e.cfg.AdversaryRate > 0 {
		draw := core.Derive(e.cfg.Seed, core.DomainAdversary, swapID)
		adversarial = draw.Float64() < e.cfg.AdversaryRate
	}
	sb := e.buildBehaviors(setup, seed, adversarial)
	j.setup, j.deviants = setup, sb.Deviants
	rcfg := e.runConfig(setup.Spec, seq)
	rcfg.OnDone = j
	if _, err := conc.Prepare(setup, sb.Behaviors, rcfg); err != nil {
		rejectGroup("execution: " + err.Error())
		return false
	}
	// Counted live before its orders leave the book: Drain reads the book
	// first, so it never finds both empty while this run is live.
	e.liveRuns.Add(1)
	e.agg.SwapStarted()
	e.mu.Lock()
	for _, o := range group {
		o.status = StatusExecuting
		o.swap = swapID
		e.book.remove(o)
	}
	e.mu.Unlock()
	e.agg.AddCleared(len(group))
	if e.cfg.Store != nil {
		now := e.sched.Now()
		for _, r := range held {
			e.logEvent(Event{
				Kind: EvReserved, Tick: now,
				Swap: swapID, Chain: r.chain, Asset: r.asset,
			})
		}
		e.logEvent(Event{Kind: EvCleared, Tick: now, Swap: swapID, Orders: orderIDs(group)})
	}
	return true
}

// orderIDs lists the orders' IDs.
func orderIDs(orders []*order) []OrderID {
	ids := make([]OrderID, len(orders))
	for i, o := range orders {
		ids[i] = o.id
	}
	return ids
}

// buildBehaviors assembles one swap's behavior overrides: the Behaviors
// factory when configured, else the legacy AdversaryRate silent leader.
// Deviation tallies happen at settle time (settle), not here, so a
// swap rejected before it ran never counts its injected deviations.
func (e *unit) buildBehaviors(setup *core.Setup, seed int64, adversarial bool) SwapBehaviors {
	var sb SwapBehaviors
	spec := setup.Spec
	switch {
	case e.cfg.Behaviors != nil:
		sb = e.cfg.Behaviors(setup, seed)
	case adversarial:
		// A silent leader completes Phase One and never reveals: the swap
		// aborts, every conforming party refunds (never Underwater).
		lv := spec.Leaders[seed%int64(len(spec.Leaders))]
		idx, _ := spec.LeaderIndex(lv)
		sb = SwapBehaviors{
			Behaviors: map[digraph.Vertex]core.Behavior{lv: adversary.SilentLeader(idx)},
			Deviants:  map[digraph.Vertex]string{lv: "silent-leader"},
		}
	}
	return sb
}

// runConfig is the conc configuration every engine swap runs with. Its
// start T is Δ after the clearing tick, so its leaders publish at T−Δ, the
// clearing tick itself, as the paper's clearing sets a start "at least Δ
// in the future". Δ is the floor: any nearer and the leaders' contracts
// land after T−Δ, where the deadline arithmetic, exactly tight by design,
// refunds conforming swaps. No more headroom is needed: a callback sees
// its own tick on a paced clock as on a free one, so nothing between
// clearing and the first publication eats a deadline.
func (e *unit) runConfig(spec *core.Spec, stripe uint64) conc.Config {
	cfg := conc.Config{
		Scheduler:   e.sched,
		StartOffset: spec.Delta,
		Registry:    e.reg,
		// A run ends the tick its last arc resolves, not at its padded
		// worst-case horizon: its settle frees the live-run slot, so a
		// gated book clears behind finished swaps, not behind horizons.
		EarlyExit: true,
		Cache:     e.vcache,
		// Per-swap stripes let a striped scheduler run this swap
		// serialized against itself but concurrent with the others; the
		// shared ring replaces per-run trace logs.
		StripeKey: stripe,
		Log:       e.tracer,
	}
	if e.cfg.Store != nil {
		// Phase transitions go to the WAL: recovery's resume-vs-refund
		// rule reads the furthest phase a swap reached and its deadline.
		tag := spec.Tag
		cfg.OnPhase = func(ev conc.PhaseEvent) {
			e.cfg.Store.Append(Event{
				Kind: EvPhase, Tick: ev.At,
				Swap: tag, Phase: ev.Phase, Deadline: ev.Deadline,
			})
		}
	}
	if e.cfg.Commitment.Enabled() {
		// Reorg reverts are counted per chain and (when durable) logged:
		// recovery can then tell how much of a swap's trajectory was
		// reorg-disturbed before the crash.
		tag := spec.Tag
		cfg.OnRevert = func(ev conc.RevertEvent) {
			e.agg.AddReverted(ev.Chain)
			e.logEvent(Event{
				Kind: EvReverted, Tick: ev.At,
				Swap: tag, Chain: ev.Chain, Phase: ev.Kind.String(),
			})
		}
	}
	return cfg
}

// settle closes one swap's books inside its horizon delivery, on its
// stripe, at the tick its outcome became final: it releases the
// reservations, settles the orders, logs both, and counts the run out of
// liveRuns — last, so a Drain that sees no live run sees settled orders.
func (e *unit) settle(j *job, res *conc.Result) {
	spec := j.setup.Spec
	for _, r := range j.resv {
		e.reg.Release(r.chain, r.asset, j.swapID)
		if e.cfg.Store != nil {
			// Record the asset's post-swap owner — ground truth from the
			// chain, so recovery re-mints under whoever actually holds it.
			// An asset stranded in contract escrow (a crashed or
			// claim-withholding deviant walked away) is recorded under an
			// escrow pseudo-party: a restarted engine cannot resurrect
			// another chain's contract state, only represent the loss.
			var ownerParty string
			if owner, ok := e.reg.Chain(r.chain).OwnerOf(r.asset); ok && owner.Kind == chain.OwnerParty {
				ownerParty = string(owner.Party)
			} else {
				ownerParty = "escrow:" + j.swapID
			}
			e.logEvent(Event{
				Kind: EvReleased, Tick: res.SettleTick,
				Swap: j.swapID, Chain: r.chain, Asset: r.asset,
				Party: ownerParty,
			})
		}
	}

	econ := swapEconomics(spec, res, j.deviants)

	now := time.Now()
	e.mu.Lock()
	for _, o := range j.orders {
		o.status = StatusSettled
		o.settledAt = now
		o.settledTick = res.SettleTick
		if v, ok := spec.VertexOf(o.offer.Party); ok {
			o.class = res.Report.Of(v)
			o.deviant = j.deviants[v]
			o.lockCost = escrowLock(spec, res, v)
		}
		e.logEvent(Event{
			Kind: EvSettled, Tick: res.SettleTick,
			Order: o.id, Swap: j.swapID,
			Class: int(o.class), Deviant: o.deviant,
		})
	}
	e.mu.Unlock()

	if len(j.deviants) > 0 {
		e.agg.AddSabotaged(len(j.orders))
		for _, name := range j.deviants {
			e.agg.AddDeviation(name)
		}
	}
	for _, o := range j.orders {
		e.agg.AddOutcome(o.class.String(), now.Sub(o.submittedAt))
	}
	e.agg.AddEconomics(econ)
	e.agg.SwapFinished(false, spec.Kind == core.KindSingleLeader)
	if e.liveRuns.Add(-1) == 0 {
		e.notifyDrain()
	}
}

// rejectOrders marks orders rejected (skipping any that already left the
// pending state) and removes them from the book.
func (e *unit) rejectOrders(batch []*order, reason string) {
	now := e.sched.Now()
	e.mu.Lock()
	n := 0
	for _, o := range batch {
		if o.status != StatusPending {
			continue
		}
		o.status = StatusRejected
		o.reason = reason
		e.book.remove(o)
		n++
		e.logEvent(Event{Kind: EvRejected, Tick: now, Order: o.id, Reason: reason})
	}
	empty := e.book.len() == 0
	e.mu.Unlock()
	if n > 0 {
		e.agg.AddRejected(n)
	}
	if empty {
		e.notifyDrain()
	}
}

// notifyDrain wakes a blocked Drain without ever blocking the caller.
func (e *unit) notifyDrain() {
	select {
	case e.drainCh <- struct{}{}:
	default:
	}
}

// kill closes the unit down for a crash (Engine.Kill): its clearing loop
// stops, and its book is left for recovery.
func (e *unit) kill() {
	e.mu.Lock()
	e.killed = true
	e.mu.Unlock()
	e.clearing.Stop(false)
	e.notifyDrain()
}

// drain waits for the unit's book to empty and every live run to settle.
// Offers that cannot match are rejected once the book is stuck. After kill
// the book is deliberately ignored: pending orders are the recovery
// subsystem's input, and no clearing round is left to resolve them anyway.
// A posted order's intake and the stuck-book rejection are scheduler
// events, which the engine's Stop runs before it closes the scheduler.
func (e *unit) drain(ctx context.Context) error {
	// Event-driven wait: bookings, settles, rejections, parking, and kill
	// all signal drainCh the instant the unit may have gone idle, so runs
	// pay no wall-clock poll interval as a shutdown tail.
	for {
		// The book before the live count: see clearGroup. A posted order is
		// on its way into the book.
		e.mu.Lock()
		booked, posted := e.book.len() > 0 && !e.killed, e.posted > 0
		e.mu.Unlock()
		var wait <-chan struct{} = e.drainCh
		if e.liveRuns.Load() == 0 {
			if !booked && !posted {
				return nil
			}
			// The clearing loop parks on a stuck book (see clearTick); the
			// remaining offers have no counterparties coming, so reject
			// them, on the timeline, at the current tick. A parked free
			// clock is frozen at the schedule's last event, so the rejection
			// tick — and the digest — stays a pure function of the seed.
			if !posted && !e.clearing.Armed() {
				done := make(chan struct{})
				e.sched.AtLevel(0, 0, e.stripe, func() {
					if !e.clearing.Armed() {
						e.mu.Lock()
						stuck := e.book.all()
						e.mu.Unlock()
						e.rejectOrders(stuck, "unmatched: no counterparties before drain")
					}
					close(done)
				})
				wait = done
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wait:
		}
	}
}

// stop stops the clearing loop and waits for every live run to settle.
func (e *unit) stop() {
	e.clearing.Stop(true)
	// The last run to settle signals drainCh (see settle).
	for e.liveRuns.Load() > 0 {
		<-e.drainCh
	}
}

// Report snapshots the unit's own metrics (diagnostics: Engine.Report is
// the service's). A nil unit — a one-shard engine's Coordinator — reports
// nothing.
func (e *unit) Report() metrics.Throughput {
	if e == nil {
		return metrics.Throughput{}
	}
	return e.agg.Snapshot()
}

// pending returns the number of pending orders: the book's depth plus the
// orders posted and not yet booked.
func (e *unit) pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.book.len() + e.posted
}

// booked returns the book's depth alone: what a clearing round can see.
func (e *unit) booked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.book.len()
}
