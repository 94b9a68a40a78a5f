package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Engine is the clearing service: one deployment, whatever its shard count.
// Create with New (or NewRecovered), call Start, Submit offers from any
// goroutine, and Drain/Stop to wind down.
//
// It builds Config.Shards clearing units (one when Shards is 0 or 1), each
// with its own order book, clearing loop and scheduler stripe, over ONE
// host it owns: scheduler, chain registry, keyring, verification cache and
// trace ring. A deterministic asset→shard map (Map) routes every offer to
// the unit owning its give-chain. With more than one shard it also builds
// the two-level part: a coordinator unit that clears the cross-shard
// remainder — offers whose own transfers span shards, and shard-local
// offers that age out unmatched because their counterparties live in other
// shards' books — with AC3-style prepared/committed bookkeeping in the WAL,
// and the escalation sweep that moves those aged orders. Per-round clearing
// cost is O(shard book), not O(global book). The tick ladder on the shared
// scheduler is
//
//	level 0  protocol events (deliveries, horizons), intake
//	level 1  shard clearing, one stripe per shard
//	level 2  escalation sweep
//	level 3  coordinator clearing
//
// with a dispatch barrier between levels, so every shard's clearing pass
// sees the same pre-tick state, the sweep sees every shard's post-clearing
// book, and the coordinator sees every escalation of its tick. One shard
// has only levels 0 and 1. See DESIGN.md §11.
type Engine struct {
	cfg  Config
	host host
	m    Map

	// units holds the shards, then the coordinator when there is one: the
	// fixed merge order.
	units  []*unit
	shards []*unit
	coord  *unit // nil on one shard

	// sweep is the escalation sweep (nil on one shard): sweepTick on the
	// clearing cadence, at level 2 of the ladder. It parks when every shard
	// book is empty, and a shard's intake event wakes it, whether it booked
	// or rejected the order (unit.onIntake). swept hears each park: it is
	// what Drain waits on, so every order that leaves a shard's intake must
	// lead to one.
	sweep *sched.Loop
	swept chan struct{}
	// escAfter is how many ticks an order may sit unmatched in a shard book
	// before the sweep escalates it: 4× the clearing cadence, so four
	// shard-local rounds get first shot at every order. The cutoff applies
	// to the order's original booking tick, so escalation timing does not
	// depend on the shard count.
	escAfter vtime.Duration

	// startedAt is the metrics epoch of a merged report, which is assembled
	// at report time.
	startedAt time.Time

	// mu guards state, killed and nextID. Submit holds it across its post,
	// so a drain that has closed intake sees every accepted order, and
	// posting order is ID order.
	mu     sync.Mutex
	state  engineState
	killed bool
	// nextID is the global order sequence: an order's identity (and
	// everything derived from it — swap tags, seeds, stripes) does not
	// depend on which unit books it.
	nextID OrderID

	// recovered marks an engine rebuilt by NewRecovered: its history
	// includes a crash, so audits hold it to ledger integrity rather than
	// strict no-stranded-escrow conservation (a hard crash mid-settlement
	// can orphan an escrowed leg by design). recMinted is what recovery
	// re-minted: the units' own minted lists cover only their intake.
	recovered bool
	recMinted []Minted
}

// host is what the units of one deployment share: ONE scheduler, chain
// registry, keyring, verify cache, trace ring and intake. The deployment
// builds it (newHost) and owns it: it closes the scheduler, restores a
// recovered state into it, and logs the deployment's kill, each once.
type host struct {
	// Scheduler is the shared time source.
	Scheduler *sched.Virtual
	// Registry is the shared chain registry: one reservation table spanning
	// every shard, so a cross-shard swap reserves assets on all of them.
	Registry *chain.Registry
	// Keyring is the shared party keyring (parties may submit to any
	// shard; their identity must not depend on which).
	Keyring *core.Keyring
	// Cache is the shared hashkey verification cache, its batch pool sized
	// once from the deployment's total workers.
	Cache *hashkey.VerifyCache
	// Tracer is the shared trace flight recorder.
	Tracer *trace.Log

	// intake holds the orders posted to every unit until its one event
	// admits them.
	intake *intake
	// sealer is the configured store when it batches its writes on the
	// host's timeline (see Store); close unbinds it.
	sealer interface{ SealOn(*sched.Virtual) }
}

// newHost builds a deployment's shared infrastructure from cfg: the
// scheduler cfg asks for (a free one-worker clock under Deterministic, a
// free one of Workers workers under Parallel, else one of Workers workers
// paced by the wall at Tick), a chain registry under cfg.Commitment,
// the keyring (its root derived from Seed, so a recovered deployment
// re-derives every key), the verify cache with its batch pool sized once
// for the machine, the trace ring, and a batching Store's seal. The
// scheduler runs a dispatcher goroutine, which close stops.
func newHost(cfg Config) host {
	var sc *sched.Virtual
	switch {
	case cfg.Parallel:
		sc = sched.NewVirtual(cfg.Workers)
	case cfg.Deterministic:
		sc = sched.NewVirtual(1)
	default:
		sc = sched.NewPaced(cfg.Workers, cfg.Tick)
	}
	root := core.Derive(cfg.Seed, core.DomainIdentity, "")
	h := host{
		Scheduler: sc,
		Registry:  chain.NewRegistry(sc),
		Keyring:   core.NewKeyring(&root),
		Cache:     hashkey.NewVerifyCache(0),
		Tracer:    trace.NewLog(trace.DefaultCap),
		intake:    &intake{v: sc},
	}
	// Cold chain walks may fan links across the pool — capped at the
	// machine's parallelism, where extra fan-out is pure overhead. Sized
	// once from the whole budget: N shards never stack N pools.
	h.Cache.SetBatchWorkers(min(cfg.Workers, runtime.GOMAXPROCS(0)))
	if cfg.Commitment.Enabled() {
		// One model set for the whole deployment, installed before any chain
		// exists — which is also why this cannot fail.
		if err := h.Registry.SetCommitmentModels(cfg.Commitment.Model); err != nil {
			panic(err)
		}
	}
	if st := cfg.Store; st != nil {
		// A store that can batch its writes seals once per tick on the
		// deployment's timeline (see Store).
		if b, ok := st.(interface{ SealOn(*sched.Virtual) }); ok {
			b.SealOn(sc)
			h.sealer = b
		}
	}
	return h
}

// close stops the host's scheduler, then unbinds a batching store, which
// seals what it holds: a close that lands between a tick's levels leaves
// that tick's appends pending, its seal never to run. Appends after it
// are written at once.
func (h *host) close() {
	h.Scheduler.Close()
	if h.sealer != nil {
		h.sealer.SealOn(nil)
	}
}

// New creates an engine of cfg.Shards shards (one when 0), not yet
// started.
func New(cfg Config) *Engine {
	e, _ := build(cfg, nil)
	return e
}

// NewRecovered builds an engine from a recovered state, onto cfg.Shards
// shards whatever count wrote the log: assets re-minted under their logged
// owners, orders re-booked on their home units by the map intake uses
// (pending ones re-enter the book and re-clear once Start runs), the order
// ID sequence resumed, metrics counters restored, and — on a free clock —
// the clock advanced to the recovery tick so post-recovery events continue
// the pre-crash tick line. Party keys are re-derived from cfg.Seed, so a
// recovery under the seed the log was written with signs as before.
// An order escalated to the coordinator before the crash goes back to its
// home shard; its booking tick is old, so the first sweep re-escalates it.
// The caller Starts the engine afterwards, exactly like one built with New.
//
// Wall-clock latency history does not survive a crash: restored metrics
// carry the pre-crash counts and outcome tallies, but the latency
// histogram restarts empty (tick-domain digests never depended on it).
func NewRecovered(cfg Config, st RecoveredState) (*Engine, error) {
	return build(cfg, &st)
}

// build assembles the host and the units; rst, when non-nil, is a
// recovered state to resurrect from.
func build(cfg Config, rst *RecoveredState) (*Engine, error) {
	cfg = cfg.withDefaults()
	n := max(cfg.Shards, 1)
	e := &Engine{cfg: cfg, host: newHost(cfg), m: NewMap(n), startedAt: time.Now()}
	// Workers is the whole budget: it sized the host's helpers and cache
	// pool, and each unit takes its share for its MaxLive default.
	ucfg := cfg
	ucfg.Workers = max(cfg.Workers/n, 1)
	if n == 1 {
		// The plain engine: one unit on the shared stripe 0, no sweep and no
		// coordinator.
		e.units = []*unit{newUnit(e, ucfg, 0, nil)}
	} else {
		// The stripe key space of the scheduler is partitioned by
		// construction: swap runs stripe on their canonical sequence, shard
		// clearing on 1..N at level 1, the sweep on N+2 at level 2, and
		// coordinator clearing on N+1 at level 3.
		e.escAfter = 4 * cfg.ClearEvery
		e.swept = make(chan struct{}, 1)
		e.sweep = sched.NewLoop(e.host.Scheduler, cfg.ClearEvery, 2, uint64(n+2), e.sweepTick)
		for i := range n {
			u := newUnit(e, ucfg, uint64(i+1), nil)
			u.onIntake = e.sweep.Wake
			e.units = append(e.units, u)
		}
		e.coord = newUnit(e, ucfg, uint64(n+1), e.m.Of)
		e.units = append(e.units, e.coord)
	}
	e.shards = e.units[:n:n]
	if rst != nil {
		if err := e.restore(rst); err != nil {
			e.host.close()
			return nil, err
		}
	}
	return e, nil
}

// route returns the unit an offer books on: its home shard by the give-chain
// map, or the coordinator when its own transfers span shards.
func (e *Engine) route(offer core.Offer) *unit {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	home, cross := e.m.OfOffer(offer)
	if cross {
		return e.coord
	}
	return e.shards[home]
}

// restore replays a recovered state into the host, once — assets
// re-minted into the registry under their logged owners, the clock set to
// the recovery tick — and its orders onto their home units. Keys need no
// restoring: the keyring re-derives each from Seed.
func (e *Engine) restore(st *RecoveredState) error {
	e.recovered = true
	h := &e.host
	for _, a := range st.Assets {
		if err := h.Registry.Chain(a.Chain).RegisterAsset(chain.Asset{
			ID: a.Asset, Amount: a.Amount,
		}, chain.PartyID(a.Owner)); err != nil {
			return fmt.Errorf("engine: recovery re-mint %s/%s: %w", a.Chain, a.Asset, err)
		}
		e.recMinted = append(e.recMinted, a.Minted)
	}
	// Pre-crash submit ticks stay in the past, where they belong.
	h.Scheduler.Advance(st.Tick)

	parts := make(map[*unit][]RecoveredOrder, len(e.units))
	for _, ro := range st.Orders {
		u := e.route(ro.Offer)
		parts[u] = append(parts[u], ro)
	}
	for i, u := range e.units {
		shed := 0
		if i == 0 {
			shed = st.Shed
		}
		u.restore(parts[u], OrderID(st.NextOrder), shed)
	}
	e.nextID = OrderID(st.NextOrder)
	return nil
}

// Shards reports the shard count (the coordinator excluded).
func (e *Engine) Shards() int { return len(e.shards) }

// Shard exposes shard unit i (tests and diagnostics).
func (e *Engine) Shard(i int) *unit { return e.shards[i] }

// Coordinator exposes the cross-shard coordinator unit (tests and
// diagnostics); nil on one shard, which builds none.
func (e *Engine) Coordinator() *unit { return e.coord }

// Registry exposes the shared chain registry (for invariant checks).
func (e *Engine) Registry() *chain.Registry { return e.host.Registry }

// Scheduler exposes the engine's time scheduler, so load generators can
// drive arrival processes on the same clock the swaps run against (free or
// paced).
func (e *Engine) Scheduler() *sched.Virtual { return e.host.Scheduler }

// Tick reports the configured wall duration of one virtual tick (the
// rate-to-ticks conversion factor for schedules driven through Scheduler).
func (e *Engine) Tick() time.Duration { return e.cfg.Tick }

// Keyring exposes the persistent party keyring.
func (e *Engine) Keyring() *core.Keyring { return e.host.Keyring }

// VerifyCacheStats snapshots the hashkey verification cache counters.
func (e *Engine) VerifyCacheStats() hashkey.CacheStats { return e.host.Cache.Stats() }

// Recovered reports whether this engine was rebuilt from a durable log
// (NewRecovered) rather than started fresh.
func (e *Engine) Recovered() bool { return e.recovered }

// Start opens intake and arms the clearing loops and the sweep. It starts
// no goroutine: everything runs on the scheduler.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.state != stateNew {
		e.mu.Unlock()
		return fmt.Errorf("engine: already started")
	}
	e.state = stateRunning
	e.mu.Unlock()
	for _, u := range e.units {
		u.clearing.Wake()
	}
	if e.sweep != nil {
		e.sweep.Wake()
	}
	return nil
}

// Submit posts one offer for booking and returns its order ID. Safe from
// any goroutine, and it touches nothing the timeline reads: it validates
// the offer statically, routes it to its unit, assigns the next global ID
// and records the pending order there. The order exists from here on
// (Orders, Pending), and the host's one intake event books it (admit) at
// level 0 of the current tick, in posting order across every unit —
// minting any asset the party deposits for the first time, or rejecting
// the order if the ledger says otherwise.
//
// Booking only there is what lets the clearing loops and the escalation
// sweep park without a re-check: no booking lands between a round's look
// at the book and its Park. A post from inside a level-0 callback books
// later in the same tick, before any clearing level runs, so every round
// sees every order posted at or before its tick.
func (e *Engine) Submit(offer core.Offer) (OrderID, error) {
	if err := validateOffer(offer); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateRunning {
		return 0, ErrNotRunning
	}
	e.nextID++
	e.route(offer).post(e.nextID, offer)
	return e.nextID, nil
}

// Order returns a snapshot of one order's state, wherever it lives. It
// reads off the timeline: with a store that seals per tick, the status can
// be up to one tick ahead of the log (see Store).
func (e *Engine) Order(id OrderID) (OrderSnapshot, bool) {
	for _, u := range e.units {
		if snap, ok := u.order(id); ok {
			return snap, true
		}
	}
	return OrderSnapshot{}, false
}

// Orders snapshots every order the engine ever accepted, in ID order — the
// scenario harness's raw material for digests and invariant checks. The
// units' sets are disjoint: escalation withdraws an order from its shard
// before the coordinator books it. Like Order, it can run a tick ahead of
// the log.
func (e *Engine) Orders() []OrderSnapshot {
	out := e.units[0].snapshots()
	if len(e.units) > 1 {
		for _, u := range e.units[1:] {
			out = append(out, u.snapshots()...)
		}
		slices.SortFunc(out, func(a, b OrderSnapshot) int { return cmp.Compare(a.ID, b.ID) })
	}
	return out
}

// NoteShed records arrivals dropped before intake (the open-loop
// generator's bounded-intake backstop), so shedding shows up in the
// engine's own per-outcome accounting (on shard 0). Call it from a
// scheduler callback (the arrival that was shed): its WAL record carries
// that event's tick.
func (e *Engine) NoteShed(n int) { e.units[0].noteShed("", n) }

// NoteShedFrom is NoteShed with party attribution: the shed arrival's
// offering party rides along in the WAL event, so a recovered run — and
// any fairness audit over the log — can tell whose traffic the backstop
// turned away. Call it from a scheduler callback, as NoteShed.
func (e *Engine) NoteShedFrom(party chain.PartyID, n int) { e.units[0].noteShed(party, n) }

// Pending returns the number of pending orders, booked or posted, across
// every unit.
func (e *Engine) Pending() int {
	n := 0
	for _, u := range e.units {
		n += u.pending()
	}
	return n
}

// PendingOf reports how many of the named party's orders are pending,
// booked or posted, across every unit (a party may have orders on several
// shards, and escalated ones sit in the coordinator's book).
func (e *Engine) PendingOf(party chain.PartyID) int {
	n := 0
	for _, u := range e.units {
		n += u.pendingOf(party)
	}
	return n
}

// PendingParties reports how many distinct parties have pending orders,
// summed per unit: a party straddling shards counts once per book it
// occupies, which keeps the fair-share quota conservative.
func (e *Engine) PendingParties() int {
	n := 0
	for _, u := range e.units {
		n += u.pendingParties()
	}
	return n
}

// InFlight returns the number of live runs: swaps dispatched and not yet
// settled.
func (e *Engine) InFlight() int {
	n := 0
	for _, u := range e.units {
		n += int(u.liveRuns.Load())
	}
	return n
}

// sweepTick is one escalation round: move every order that has aged past
// the cutoff from the shard books to the coordinator's (unit.escalate).
// Runs at level 2 of the tick ladder, on the same ClearEvery grid as the
// clearing loops: at any grid tick the order is shard clearing (an order a
// shard can still match locally is matched, not escalated) → sweep →
// coordinator clearing, whatever the shard count. The return value says
// whether to stay armed: with every shard book empty the sweep parks, and
// tells Drain. No re-check is needed: a shard books only in an intake
// event, at level 0, which wakes the sweep after it.
func (e *Engine) sweepTick() bool {
	if e.coord.escalate(e.shards, e.host.Scheduler.Now().Add(-e.escAfter)) > 0 {
		return true
	}
	e.sweep.Park()
	select {
	case e.swept <- struct{}{}:
	default:
	}
	return false
}

// Kill stops the engine abruptly — the crash-model shutdown the durable
// subsystem recovers from. One process hosts every unit, so one crash takes
// all of them: intake closes, the sweep and every clearing loop stop, but
// unlike Stop nothing is drained: pending orders stay pending and in-flight
// swaps are left to play out (their settle events carry ticks past the
// cut, so recovery ignores them). It returns the cut tick — the virtual
// instant of the crash; durable.Recover replays only events stamped at or
// before it, making the recovered state a pure function of the schedule.
// Call Stop afterwards to wait out the live runs and release the
// scheduler. Call it from a scheduler callback, so that the cut is that
// event's tick (it never waits on a clearing tick in flight).
func (e *Engine) Kill() vtime.Ticks {
	e.mu.Lock()
	if e.state == stateRunning || e.state == stateNew {
		e.state = stateDraining
	}
	e.killed = true
	e.mu.Unlock()
	if e.sweep != nil {
		e.sweep.Stop(false)
	}
	for _, u := range e.units {
		u.kill()
	}
	cut := e.host.Scheduler.Now()
	if st := e.cfg.Store; st != nil {
		st.Append(Event{Kind: EvKilled, Tick: cut})
	}
	return cut
}

// Drain stops intake and waits for every book to empty and every live run
// to settle. Offers that cannot match are rejected once their book is
// stuck: with shards, the shard books drain first — the sweep escalates
// anything their local rounds cannot match — then the coordinator's, whose
// stuck book holds the true unmatchables. After Kill the books are
// deliberately ignored: pending orders are the recovery subsystem's input,
// and no clearing round is left to resolve them anyway. Drain can return
// before the last tick's frames are written to a store that seals per
// tick; Stop writes them (see Store).
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	started := e.state != stateNew
	if e.state == stateRunning {
		e.state = stateDraining
	}
	killed := e.killed
	e.mu.Unlock()
	// A free clock is born held and whoever installs a run lets it go (see
	// sched.NewVirtual). A drain that finds it still held — the book was
	// filled from outside with no hold, or not at all — is that party; on a
	// clock already let go this is a hold taken and dropped.
	e.host.Scheduler.Hold()()
	if e.sweep != nil && started && !killed {
		// Wait out the shard books: local rounds clear what they can, the
		// sweep moves the rest to the coordinator and parks once every shard
		// book is empty. The count comes before the sweep's state: an order
		// on the move is in no book, but the sweep is armed until its move
		// is done, and posted orders count as pending.
		for e.shardsPending() > 0 || e.sweep.Armed() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-e.swept:
			}
		}
	}
	for _, u := range e.units {
		if err := u.drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// shardsPending counts the orders pending on the shards, posted or booked.
func (e *Engine) shardsPending() int {
	n := 0
	for _, u := range e.shards {
		n += u.pending()
	}
	return n
}

// Stop gracefully shuts the engine down: drain every book, stop the sweep
// and the clearing loops, and wait for every live run to settle — even
// when ctx ends the drain first. It then closes the host, so its store
// holds every tick on return. Valid even if Start was never called; it
// releases the scheduler's dispatcher goroutine either way.
func (e *Engine) Stop(ctx context.Context) error {
	drainErr := e.Drain(ctx)
	e.mu.Lock()
	if e.state == stateStopped {
		e.mu.Unlock()
		return drainErr
	}
	e.state = stateStopped
	e.mu.Unlock()
	if e.sweep != nil {
		e.sweep.Stop(true)
	}
	for _, u := range e.units {
		u.stop()
	}
	e.host.close()
	return drainErr
}

// Report snapshots the service-level metrics: with shards, every unit's
// aggregate folded in the fixed unit order. The signature count comes from
// the shared keyring meter at snapshot time, once — never summed per unit.
func (e *Engine) Report() metrics.Throughput {
	agg := e.units[0].agg
	if len(e.units) > 1 {
		agg = metrics.NewAggregate()
		agg.SetStartedAt(e.startedAt)
		for _, u := range e.units {
			agg.Merge(u.agg)
		}
	}
	agg.SetSigns(e.host.Keyring.Signs())
	if e.cfg.Commitment.Enabled() {
		// Surface each modeled chain's effective Δ (chain Δ + confirmation
		// depth) so heterogeneous-finality runs show their real ladder.
		deltas := make(map[string]int)
		for _, name := range e.host.Registry.ModeledChains() {
			deltas[name] = int(e.host.Registry.Chain(name).Timing().EffectiveDelta(e.cfg.Delta))
		}
		if len(deltas) > 0 {
			agg.SetChainDeltas(deltas)
		}
	}
	return agg.Snapshot()
}

// SetRecoveryStats records crash-recovery counters on the engine's metrics
// (durable.Recover calls it on the engine it rebuilds).
func (e *Engine) SetRecoveryStats(rs metrics.RecoveryStats) { e.units[0].agg.SetRecovery(rs) }

// ClearRounds reports how many clearing rounds had live work to look at
// (see unit.roundTicks: the round that parks an idle or stuck unit is
// excluded). With shards, the units' round tick sets merge — a tick where
// k units all had work counts once, exactly as the same work would on one
// shard — so the count replays identically on a free clock and whatever
// the shard count. Call only after Stop.
func (e *Engine) ClearRounds() int {
	var ticks []vtime.Ticks
	for _, u := range e.units {
		ticks = append(ticks, u.roundTicks...)
	}
	slices.Sort(ticks)
	return len(slices.Compact(ticks))
}

// VerifyConservation checks the registry invariant that rules out
// double-spends: every asset the engine ever minted — at intake, or by a
// recovery's re-mint — still exists exactly once, with its recorded amount,
// on its chain, and every ledger's hash chain is intact. When nothing is in
// flight it additionally requires every asset to be party-owned (no
// stranded escrow).
func (e *Engine) VerifyConservation() error { return e.verifyLedgers(true) }

// VerifyLedgerIntegrity is VerifyConservation without the stranded-
// escrow check: ledgers intact, every minted asset present exactly once
// with its recorded amount and a well-defined owner. Scenarios with
// crash-faulted or claim-withholding deviants use it — a crashed party
// legitimately leaves its escrow unclaimed forever, which is its own
// loss, not a conservation violation.
func (e *Engine) VerifyLedgerIntegrity() error { return e.verifyLedgers(false) }

// verifyLedgers is the one audit: every ledger's hash chain, then the
// recovery's re-mints and every unit's intake mints, each list in place.
func (e *Engine) verifyLedgers(strandCheck bool) error {
	reg := e.host.Registry
	if !reg.VerifyAllLedgers() {
		return fmt.Errorf("engine: ledger hash chain broken")
	}
	strandCheck = strandCheck && e.InFlight() == 0
	if err := verifyMinted(reg, e.recMinted, strandCheck); err != nil {
		return err
	}
	for _, u := range e.units {
		u.mu.Lock()
		err := verifyMinted(reg, u.minted, strandCheck)
		u.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyMinted checks that every asset of minted still exists exactly once
// with its minted amount and an owner — with strandCheck, a party.
func verifyMinted(reg *chain.Registry, minted []Minted, strandCheck bool) error {
	for _, m := range minted {
		ch := reg.Chain(m.Chain)
		a, ok := ch.Asset(m.Asset)
		if !ok {
			return fmt.Errorf("engine: minted asset %s/%s vanished", m.Chain, m.Asset)
		}
		if a.Amount != m.Amount {
			return fmt.Errorf("engine: asset %s/%s amount changed: minted %d, now %d",
				m.Chain, m.Asset, m.Amount, a.Amount)
		}
		owner, ok := ch.OwnerOf(m.Asset)
		if !ok {
			return fmt.Errorf("engine: asset %s/%s has no owner", m.Chain, m.Asset)
		}
		if strandCheck && owner.Kind != chain.OwnerParty {
			return fmt.Errorf("engine: asset %s/%s stranded in escrow (%s)", m.Chain, m.Asset, owner)
		}
	}
	return nil
}
