package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Config parameterizes a ShardedEngine.
type Config struct {
	// Shards is the number of shard engines (default 4). The coordinator
	// is one more engine on top.
	Shards int
	// EscalateAfter is how many ticks an order may sit unmatched in a
	// shard book before the sweep escalates it to the coordinator
	// (default 4× the clearing cadence — four shard-local rounds get
	// first shot at every order). The cutoff is applied to the order's
	// ORIGINAL submit tick, so escalation timing is independent of the
	// shard count — the property the 4-vs-1 digest equality rests on.
	EscalateAfter vtime.Duration
	// Engine is the base configuration every inner engine is built from.
	// Workers is the TOTAL budget: it sizes the shared scheduler's
	// helpers and verify-cache pool, and each inner engine — every shard
	// and the coordinator — takes Workers/Shards for its MaxLive default.
	Engine engine.Config
}

type shardedState int

const (
	shardedRunning shardedState = iota
	shardedDraining
	shardedStopped
)

// ShardedEngine is the two-level clearing service: N shard engines
// clearing shard-local rings in parallel, one coordinator engine
// clearing the cross-shard remainder. All N+1 engines share one
// scheduler (shard clearing stripes run concurrently under
// striped-parallel dispatch), one chain registry (a single reservation
// table spans every shard, so a cross-shard swap's prepare holds assets
// on all involved shards), one keyring, one verification cache, and one
// trace ring. Per-round clearing cost drops from O(global book) to
// O(shard book): each engine partitions only the offers routed to it.
//
// The deterministic tick ladder on the shared scheduler is
//
//	level 0  protocol events (deliveries, horizons)
//	level 1  shard clearing, one stripe per shard
//	level 2  escalation sweep
//	level 3  coordinator clearing
//
// with a dispatch barrier between levels, so every shard's clearing pass
// sees the same pre-tick state, the sweep sees every shard's post-
// clearing book, and the coordinator sees every escalation of its tick.
type ShardedEngine struct {
	cfg Config
	m   Map

	// host is what every inner engine runs over; the deployment built it
	// and owns it (see engine.Host).
	host engine.Host

	shards  []*engine.Engine
	coord   *engine.Engine
	engines []*engine.Engine // shards then coordinator: the fixed merge order

	// nextID is the global order sequence: the router assigns IDs at
	// intake so an order's identity (and everything derived from it —
	// swap tags, seeds, stripes) is independent of which engine books it.
	nextID atomic.Uint64

	escAfter vtime.Duration

	// startedAt is the deployment's metrics epoch: the merged report is
	// assembled at report time, so it inherits this instant instead of
	// measuring a zero-length run.
	startedAt time.Time

	// sweep is the escalation sweep: sweepTick on the clearing cadence, at
	// level 2 of the ladder. It parks when every shard book is empty, and a
	// shard's intake event wakes it, whether it booked or rejected the order
	// (engine.Host.OnIntake). swept hears each park: it is what Drain waits
	// on, so every order that leaves a shard's intake must lead to one.
	sweep *sched.Loop
	swept chan struct{}

	// mu guards state and killed.
	mu     sync.Mutex
	state  shardedState
	killed bool

	// recovered marks an engine rebuilt by Recover; recMinted is the
	// recovery-time re-mint audit list (the inner engines' own minted
	// lists only cover post-recovery intake — see NewRecovered).
	recovered bool
	recMinted []engine.Minted
}

// New creates a sharded engine. Call Start, Submit from any goroutine,
// and Drain/Stop to wind down — the same lifecycle as engine.Engine.
func New(cfg Config) *ShardedEngine {
	s, _ := build(cfg, nil)
	return s
}

// build assembles the shared infrastructure and the N+1 inner engines.
// rst, when non-nil, is a recovered state to resurrect from (see
// NewRecovered); nil builds a fresh engine.
func build(cfg Config, rst *engine.RecoveredState) (*ShardedEngine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	// The knobs this package reads, resolved exactly as each inner engine
	// will resolve its own copy.
	base := cfg.Engine.WithDefaults()
	if cfg.EscalateAfter <= 0 {
		cfg.EscalateAfter = 4 * base.ClearEvery
	}

	s := &ShardedEngine{
		cfg:       cfg,
		m:         NewMap(cfg.Shards),
		escAfter:  cfg.EscalateAfter,
		startedAt: time.Now(),
		swept:     make(chan struct{}, 1),
	}

	// One host for everything. The stripe key space of its scheduler is
	// partitioned by construction: swap runs stripe on their canonical
	// sequence, shard clearing on 1..N at level 1, the sweep on N+2 at level
	// 2, coordinator clearing on N+1 at level 3.
	s.host = engine.NewHost(base)
	s.sweep = sched.NewLoop(s.host.Scheduler, base.ClearEvery, 2, uint64(cfg.Shards+2), s.sweepTick)

	// Partition a recovered order book by home shard before the engines
	// exist: terminal orders are history and belong wherever their offer
	// would route today; pending ones re-enter that book and re-clear
	// (an order escalated to the coordinator before the crash goes back
	// to its home shard — its submit tick is old, so the first sweep
	// re-escalates it immediately).
	var parts [][]engine.RecoveredOrder
	if rst != nil {
		parts = make([][]engine.RecoveredOrder, cfg.Shards+1)
		for _, ro := range rst.Orders {
			home, cross := s.m.OfOffer(ro.Offer)
			if cross {
				home = cfg.Shards
			}
			parts[home] = append(parts[home], ro)
		}
	}

	// Engine i of N+1: shards 0..N-1, then the coordinator — which is the
	// one that knows the chain→shard map.
	inner := cfg.Engine
	inner.Workers = base.Workers / cfg.Shards
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	for i := 0; i <= cfg.Shards; i++ {
		host := s.host
		host.Stripe = uint64(i + 1)
		if i == cfg.Shards {
			host.ShardOf = s.m.Of
		} else {
			host.OnIntake = s.sweep.Wake
		}
		ec := engine.Hosted(inner, host)
		var eng *engine.Engine
		if rst == nil {
			eng = engine.New(ec)
		} else {
			es := engine.RecoveredState{
				Orders:    parts[i],
				NextOrder: rst.NextOrder,
				// Identities, Assets, and Tick are deliberately zero: they
				// are the host's, restored once below.
			}
			if i == 0 {
				es.Shed = rst.Shed
			}
			var err error
			if eng, err = engine.NewRecovered(ec, es); err != nil {
				return nil, err
			}
		}
		s.engines = append(s.engines, eng)
	}
	s.shards, s.coord = s.engines[:cfg.Shards:cfg.Shards], s.engines[cfg.Shards]

	if rst != nil {
		s.recovered = true
		// Once, into what the engines share; the per-engine minted audit
		// lists only see post-recovery intake, so the sharded level keeps
		// the re-mints and audits them in verifyLedgers.
		if err := rst.RestoreShared(s.host); err != nil {
			return nil, err
		}
		for _, a := range rst.Assets {
			s.recMinted = append(s.recMinted, a.Minted)
		}
		s.nextID.Store(rst.NextOrder)
	}
	return s, nil
}

// NewRecovered builds a sharded engine from a recovered durable state:
// identities restored into the shared keyring, assets re-minted once
// into the shared registry, orders re-routed to their home shards (the
// same map intake uses), ID sequences resumed globally, and the shared
// clock advanced to the recovery tick. See Recover for the full
// store-to-engine path.
func NewRecovered(cfg Config, rst engine.RecoveredState) (*ShardedEngine, error) {
	return build(cfg, &rst)
}

// ShardMap exposes the asset→shard partition.
func (s *ShardedEngine) ShardMap() Map { return s.m }

// Shards reports the shard count (excluding the coordinator).
func (s *ShardedEngine) Shards() int { return s.cfg.Shards }

// Scheduler exposes the shared time scheduler (for load generators).
func (s *ShardedEngine) Scheduler() sched.Scheduler { return s.host.Scheduler }

// Tick reports the configured wall duration of one virtual tick.
func (s *ShardedEngine) Tick() time.Duration { return s.shards[0].Tick() }

// Registry exposes the shared chain registry.
func (s *ShardedEngine) Registry() *chain.Registry { return s.host.Registry }

// Keyring exposes the shared party keyring.
func (s *ShardedEngine) Keyring() *core.Keyring { return s.host.Keyring }

// VerifyCacheStats snapshots the shared hashkey verification cache.
func (s *ShardedEngine) VerifyCacheStats() hashkey.CacheStats { return s.host.Cache.Stats() }

// Recovered reports whether this engine was rebuilt from a durable log.
func (s *ShardedEngine) Recovered() bool { return s.recovered }

// Coordinator exposes the cross-shard coordinator engine (tests and
// diagnostics; routing belongs to Submit).
func (s *ShardedEngine) Coordinator() *engine.Engine { return s.coord }

// Shard exposes shard engine i (tests and diagnostics).
func (s *ShardedEngine) Shard(i int) *engine.Engine { return s.shards[i] }

// Start launches every inner engine and the escalation sweep.
func (s *ShardedEngine) Start() error {
	for _, e := range s.engines {
		if err := e.Start(); err != nil {
			return err
		}
	}
	s.sweep.Wake()
	return nil
}

// Submit routes one offer: assign the next global order ID, resolve the
// home shard from the give-chain map, and post it there — or to the
// coordinator directly when the offer's own transfers span shards. Safe
// from any goroutine: like engine.Submit it only posts, and the order's
// intake event books it, in posting order across every engine (they share
// the host's intake).
func (s *ShardedEngine) Submit(offer core.Offer) (engine.OrderID, error) {
	s.mu.Lock()
	running := s.state == shardedRunning
	s.mu.Unlock()
	if !running {
		return 0, engine.ErrNotRunning
	}
	home, cross := s.m.OfOffer(offer)
	target := s.coord
	if !cross {
		target = s.shards[home]
	}
	// The ID is drawn before booking, so a rejected offer burns one;
	// gaps are harmless (nothing assumes density), and the alternative —
	// allocating under a router-wide lock held across booking — would
	// serialize intake across shards.
	return target.SubmitRouted(engine.OrderID(s.nextID.Add(1)), offer)
}

// NoteShed records dropped arrivals (on shard 0, whose aggregate the
// merged report folds in like any other).
func (s *ShardedEngine) NoteShed(n int) { s.shards[0].NoteShed(n) }

// NoteShedFrom is NoteShed with party attribution (fair shedding's WAL
// trail); recorded on shard 0 like NoteShed.
func (s *ShardedEngine) NoteShedFrom(party chain.PartyID, n int) {
	s.shards[0].NoteShedFrom(party, n)
}

// PendingOf reports the named party's pending-order count across every
// shard and the coordinator (a party may have orders on several shards,
// and escalated ones sit in the coordinator's book).
func (s *ShardedEngine) PendingOf(party chain.PartyID) int {
	n := 0
	for _, e := range s.engines {
		n += e.PendingOf(party)
	}
	return n
}

// PendingParties reports distinct parties with pending orders, summed
// per engine: a party straddling shards counts once per book it occupies,
// which keeps the fair-share quota conservative (never larger than the
// true per-party share).
func (s *ShardedEngine) PendingParties() int {
	n := 0
	for _, e := range s.engines {
		n += e.PendingParties()
	}
	return n
}

// sweepTick is one escalation round: move every order that has aged past
// the cutoff from the shard books to the coordinator's (engine.Escalate).
// Runs at level 2 of the tick ladder, on the same ClearEvery grid as the
// clearing loops: at any grid tick the order is shard clearing (an order a
// shard can still match locally is matched, not escalated) → sweep →
// coordinator clearing, whatever the shard count — the alignment the
// digest-equality contract needs. The return value says whether to stay
// armed: with every shard book empty the sweep parks, and tells Drain. No
// re-check is needed: a shard books only in an intake event, at level 0,
// which wakes the sweep after it.
func (s *ShardedEngine) sweepTick() bool {
	if s.coord.Escalate(s.shards, s.host.Scheduler.Now().Add(-s.escAfter)) > 0 {
		return true
	}
	s.sweep.Park()
	select {
	case s.swept <- struct{}{}:
	default:
	}
	return false
}

// shardsPending counts the orders pending on the shards, posted or booked.
func (s *ShardedEngine) shardsPending() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Pending()
	}
	return n
}

// Pending reports the pending orders across every engine, posted or booked.
func (s *ShardedEngine) Pending() int {
	n := 0
	for _, e := range s.engines {
		n += e.Pending()
	}
	return n
}

// InFlight reports the live runs of every inner engine.
func (s *ShardedEngine) InFlight() int {
	n := 0
	for _, e := range s.engines {
		n += e.InFlight()
	}
	return n
}

// Order returns one order's snapshot, wherever it currently lives.
func (s *ShardedEngine) Order(id engine.OrderID) (engine.OrderSnapshot, bool) {
	for _, e := range s.engines {
		if snap, ok := e.Order(id); ok {
			return snap, true
		}
	}
	return engine.OrderSnapshot{}, false
}

// Orders snapshots every order across every engine, in global ID order.
// The sets are disjoint by construction: escalation WITHDRAWS an order
// from its shard before the coordinator re-books it.
func (s *ShardedEngine) Orders() []engine.OrderSnapshot {
	var out []engine.OrderSnapshot
	for _, e := range s.engines {
		out = append(out, e.Orders()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Report assembles the merged service-level metrics: every engine's
// aggregate folded in fixed shard order, with the signature count taken
// once from the shared keyring (never summed per engine — they all meter
// into the same counter).
func (s *ShardedEngine) Report() metrics.Throughput {
	agg := metrics.NewAggregate()
	agg.SetStartedAt(s.startedAt)
	for _, e := range s.engines {
		e.MergeMetricsInto(agg)
	}
	agg.SetSigns(s.host.Keyring.Signs())
	if s.cfg.Engine.Commitment.Enabled() {
		base := s.coord.CurrentDelta()
		deltas := make(map[string]int)
		for _, name := range s.host.Registry.ModeledChains() {
			deltas[name] = int(s.host.Registry.Chain(name).Timing().EffectiveDelta(base))
		}
		if len(deltas) > 0 {
			agg.SetChainDeltas(deltas)
		}
	}
	return agg.Snapshot()
}

// CurrentDelta reports the coordinator's current Δ (under adaptive Δ all
// engines adapt from the same fanned-out evidence, so any engine's value
// is representative).
func (s *ShardedEngine) CurrentDelta() vtime.Duration { return s.coord.CurrentDelta() }

// ClearRounds reports the merged active-round count: the per-engine round
// tick SETS merged — a tick where k engines all had live work counts once,
// exactly as the same work would in a 1-shard run — so the count is
// comparable across shard counts. Call only after Stop.
func (s *ShardedEngine) ClearRounds() int {
	ticks := make(map[vtime.Ticks]bool)
	for _, e := range s.engines {
		for _, t := range e.ClearRoundTicks() {
			ticks[t] = true
		}
	}
	return len(ticks)
}

// Kill stops the whole sharded engine abruptly — the crash-model
// shutdown. One process hosts every shard, so one crash takes all of
// them: the sweep stops, every engine is killed, and the returned cut
// tick bounds what recovery replays. Call from a scheduler callback (as
// the crash scenarios do) and the cut is one well-defined tick across
// all engines. Call Stop afterwards to wait out the live runs and
// release the scheduler.
func (s *ShardedEngine) Kill() vtime.Ticks {
	s.mu.Lock()
	if s.state == shardedRunning {
		s.state = shardedDraining
	}
	s.killed = true
	s.mu.Unlock()
	s.sweep.Stop(false)
	var cut vtime.Ticks
	for _, e := range s.engines {
		cut = e.Kill()
	}
	// One crash, one kill record, whatever the shard count: the engines
	// leave it to the host's owner.
	if st := s.cfg.Engine.Store; st != nil {
		st.Append(engine.Event{Kind: engine.EvKilled, Tick: cut})
	}
	return cut
}

// Drain stops intake and waits for every book to empty and every live
// run to settle. Shard books drain first — the sweep escalates anything
// their local rounds cannot match — then the coordinator, whose
// drain-stall detection rejects the true unmatchables.
func (s *ShardedEngine) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.state == shardedRunning {
		s.state = shardedDraining
	}
	killed := s.killed
	s.mu.Unlock()
	// Let go of a clock still held from birth (see engine.Drain).
	s.host.Scheduler.Hold()()
	if !killed {
		// Wait out the shard books: local rounds clear what they can, the
		// sweep moves the rest to the coordinator and parks once every shard
		// book is empty. The count comes before the sweep's state: an order
		// on the move is in no book, but the sweep is armed until its move
		// is done, and posted orders count as pending.
		for s.shardsPending() > 0 || s.sweep.Armed() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.swept:
			}
		}
	}
	for _, sh := range s.shards {
		if err := sh.Drain(ctx); err != nil {
			return err
		}
	}
	return s.coord.Drain(ctx)
}

// Stop gracefully shuts the sharded engine down: drain everything, stop
// the sweep, stop every inner engine, and close the shared host (once —
// the inner engines were handed it and leave it alone).
func (s *ShardedEngine) Stop(ctx context.Context) error {
	drainErr := s.Drain(ctx)
	s.mu.Lock()
	if s.state == shardedStopped {
		s.mu.Unlock()
		return drainErr
	}
	s.state = shardedStopped
	s.mu.Unlock()
	s.sweep.Stop(true)
	for _, e := range s.engines {
		if err := e.Stop(ctx); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	s.host.Close()
	return drainErr
}

// VerifyConservation checks the no-double-spend invariant across the
// whole sharded deployment: every engine's minted assets, plus every
// asset recovery re-minted at the sharded level, still exist exactly
// once with their recorded amounts, and every ledger hash chain is
// intact. When nothing is in flight anywhere it additionally requires
// party ownership (no stranded escrow).
func (s *ShardedEngine) VerifyConservation() error { return s.verifyLedgers(true) }

// VerifyLedgerIntegrity is VerifyConservation without the stranded-
// escrow check (crash-faulted scenarios — see the engine counterpart).
func (s *ShardedEngine) VerifyLedgerIntegrity() error { return s.verifyLedgers(false) }

func (s *ShardedEngine) verifyLedgers(strandCheck bool) error {
	for i, e := range s.engines {
		var err error
		if strandCheck {
			err = e.VerifyConservation()
		} else {
			err = e.VerifyLedgerIntegrity()
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// The recovery re-mints bypass the inner engines' audit lists.
	if len(s.recMinted) == 0 {
		return nil
	}
	if err := engine.VerifyMinted(s.host.Registry, s.recMinted, strandCheck, s.InFlight() == 0); err != nil {
		return fmt.Errorf("shard: recovered: %w", err)
	}
	return nil
}
