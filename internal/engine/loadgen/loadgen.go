package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/shard"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Target is the intake surface a load generator drives: the single
// engine and the sharded engine both satisfy it, so every arrival
// process, shed rule, and schedule in this package works unchanged
// against either.
type Target interface {
	Submit(offer core.Offer) (engine.OrderID, error)
	Pending() int
	NoteShed(n int)
	Scheduler() sched.Scheduler
	Tick() time.Duration
}

// PartyAccounting is the optional per-party intake surface fair shedding
// needs: both engines implement it, but Target keeps the minimal shape
// so simpler fakes and future fronts stay valid. When the target lacks
// it, sheds fall back to the global backstop and unattributed NoteShed.
type PartyAccounting interface {
	PendingOf(party chain.PartyID) int
	PendingParties() int
	NoteShedFrom(party chain.PartyID, n int)
}

// DriveTarget extends Target with the lifecycle Drive owns: stop/drain,
// the conservation audit, and the final report.
type DriveTarget interface {
	Target
	Stop(ctx context.Context) error
	Recovered() bool
	VerifyConservation() error
	VerifyLedgerIntegrity() error
	Report() metrics.Throughput
}

// DefaultMaxPending is the bounded-intake backstop: once the engine's
// pending book is this deep, further arrivals are shed instead of
// submitted, so an overloaded engine degrades by visible shedding rather
// than unbounded book growth.
const DefaultMaxPending = 4096

// Config parameterizes one open-loop load.
type Config struct {
	// Offers is the approximate number of offers to generate; the final
	// barter ring is always completed, so the actual count (Stats.Offered)
	// may overshoot by up to RingMax-1.
	Offers int
	// RingMin and RingMax bound generated barter-ring sizes (default 3/3).
	RingMin, RingMax int
	// Rate is the average offered load in offers per second of scheduler
	// time (converted to ticks via the engine's Tick). Required.
	Rate float64
	// Process shapes arrivals around the average rate (default Constant).
	Process Process
	// PartyPool reuses a fixed pool of ring-group identities (ring r uses
	// group r mod PartyPool); 0 mints fresh parties per ring.
	PartyPool int
	// MaxPending is the shed threshold on the engine's pending book
	// (default DefaultMaxPending; negative disables shedding).
	MaxPending int
	// Seed drives the arrival schedule and ring-size draws.
	Seed int64
	// Shards, when >1, switches ring generation to sharded placement:
	// chains come from per-shard pools (see shard.Map.Pools), ring r is
	// homed to shard r mod Shards, and a CrossRatio fraction of rings
	// deliberately mix two pools so their members land in different
	// shard books — the cross-shard escalation workload. This is the
	// GENERATION shard count: it fixes the offer stream, which stays
	// byte-identical whatever shard count the stream is executed on
	// (the 4-vs-1 digest-equality contract depends on exactly that).
	// 0 or 1 keeps the classic fixed chain set.
	Shards int
	// CrossRatio is the fraction of generated rings that span two
	// shards' chain pools (ignored unless Shards > 1).
	CrossRatio float64
	// FairShed switches the backstop from the global MaxPending rule
	// (book full → everyone sheds) to per-party fair shedding: when the
	// book is at MaxPending, an arrival is shed only if its party
	// already holds at least its fair share — MaxPending divided by the
	// parties currently in the book — of pending orders. A flooding
	// identity pool hits its quota and sheds; organic parties holding
	// little or nothing keep being admitted. A hard backstop at
	// 4×MaxPending still sheds everything, bounding the book against
	// sybil floods (fresh-named parties never exceed any quota).
	// Requires a PartyAccounting target; ignored otherwise.
	FairShed bool
	// FloodFactor injects a flooding coalition into the stream: after
	// each organic ring, this many extra rings are generated from a
	// small reused pool of flooder identities (engine.FloodOffer).
	// Organic rings alone satisfy the Offers budget; flood rings ride on
	// top, so the organic workload is unchanged while total offered
	// load multiplies by 1+FloodFactor.
	FloodFactor int
	// FloodParties is the flooder identity-pool size in ring groups
	// (default 2; only meaningful with FloodFactor > 0).
	FloodParties int
}

func (cfg Config) withDefaults() Config {
	if cfg.RingMin < 2 {
		cfg.RingMin = 3
	}
	if cfg.RingMax < cfg.RingMin {
		cfg.RingMax = cfg.RingMin
	}
	if cfg.Process == nil {
		cfg.Process = Constant{}
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.FloodFactor > 0 && cfg.FloodParties <= 0 {
		cfg.FloodParties = 2
	}
	return cfg
}

// PartyStats is one party's slice of the intake accounting; the
// aggregate conservation law Offered == Submitted + Shed + Refused holds
// per party too (every generated arrival meets exactly one fate, and
// each fate is attributed to the arrival's offering party).
type PartyStats struct {
	Offered   int `json:"offered"`
	Submitted int `json:"submitted"`
	Shed      int `json:"shed"`
	Refused   int `json:"refused"`
}

// Stats reports what the generator actually did.
type Stats struct {
	// Offered counts generated arrivals (submitted + shed + refused).
	Offered int `json:"offered"`
	// Submitted counts offers the engine accepted into the book.
	Submitted int `json:"submitted"`
	// Shed counts arrivals dropped by the bounded-intake backstop.
	Shed int `json:"shed"`
	// Refused counts offers the engine rejected at intake.
	Refused int `json:"refused"`
	// FirstTick and LastTick span the arrival schedule in virtual ticks.
	FirstTick vtime.Ticks `json:"first_tick"`
	LastTick  vtime.Ticks `json:"last_tick"`
	// Parties breaks the accounting down by offering party — the ground
	// truth behind fair-shedding audits (whose traffic was turned away).
	Parties map[string]PartyStats `json:"parties,omitempty"`
}

// Run drives one open-loop load into a started engine: every offer is
// submitted by a callback on the engine's scheduler at its scheduled
// arrival tick, and Run returns once the last arrival has fired (or ctx
// expires, cancelling the rest). The engine is left running — callers
// own Drain/Stop, so loads can be layered or followed by more traffic —
// but must not Stop it while Run is in flight (abort via ctx instead): a
// closed scheduler drops queued arrivals without firing them.
func Run(ctx context.Context, e Target, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 {
		return Stats{}, errors.New("loadgen: Rate must be positive")
	}
	if cfg.Offers <= 0 {
		return Stats{}, errors.New("loadgen: Offers must be positive")
	}
	offers, ringOf := buildOffers(cfg)
	ticks := Schedule(cfg.Process, len(offers), cfg.Rate, e.Tick(), cfg.Seed)

	// Party attribution runs whenever the target supports it; the fair
	// shed POLICY additionally needs the config knob.
	acct, _ := e.(PartyAccounting)
	fair := cfg.FairShed && acct != nil

	var (
		mu sync.Mutex
		st Stats
		wg sync.WaitGroup
		// shedRings makes shedding ring-granular: once any offer of a
		// ring is shed, the ring's remaining arrivals are shed too.
		// Per-offer shedding would strand partial rings in the book —
		// offers that can never match — so a transient overload could pin
		// Pending at the threshold and shed everything that follows.
		// (Concurrent same-tick arrivals can still split a ring right at
		// the threshold crossing; those stragglers are bounded per
		// overload episode and rejected at drain.)
		shedRings = make(map[int]bool)
		// fired marks arrivals whose fate is accounted, so the cancel
		// path's sweep and a late-firing callback never double-count.
		fired = make([]bool, len(offers))
	)
	st.Offered = len(offers)
	st.FirstTick, st.LastTick = ticks[0], ticks[len(offers)-1]
	st.Parties = make(map[string]PartyStats)
	party := func(o core.Offer, f func(*PartyStats)) {
		p := st.Parties[string(o.Party)]
		f(&p)
		st.Parties[string(o.Party)] = p
	}
	for _, o := range offers {
		party(o, func(p *PartyStats) { p.Offered++ })
	}

	sc := e.Scheduler()
	timers := make([]sched.Timer, len(offers))
	wg.Add(len(offers))
	// Hold the dispatcher while the schedule is installed: no arrival runs
	// before the later ones are even queued. On a free clock this is the
	// hold that adopts the birth hold (sched.NewVirtual): time has not moved
	// since the engine was built, whatever was done to it meanwhile.
	release := sc.Hold()
	for i := range offers {
		i, offer, ring := i, offers[i], ringOf[i]
		timers[i] = sc.At(ticks[i], func() {
			defer wg.Done()
			mu.Lock()
			if fired[i] {
				mu.Unlock() // the cancel sweep already accounted this arrival
				return
			}
			fired[i] = true
			shed := shedRings[ring]
			if !shed && cfg.MaxPending > 0 && e.Pending() >= cfg.MaxPending {
				if fair {
					// Per-party fair shedding: the book budget apportioned
					// over the parties currently holding it. A party at or
					// past its share sheds; one below it (an organic party
					// facing a flood) is still admitted — up to the hard
					// 4× backstop that bounds the book absolutely.
					quota := cfg.MaxPending / acct.PendingParties()
					if quota < 1 {
						quota = 1
					}
					if acct.PendingOf(offer.Party) >= quota || e.Pending() >= 4*cfg.MaxPending {
						shedRings[ring] = true
						shed = true
					}
				} else {
					shedRings[ring] = true
					shed = true
				}
			}
			if shed {
				st.Shed++
				party(offer, func(p *PartyStats) { p.Shed++ })
				mu.Unlock()
				// Surface shedding in the engine's own counters, attributed
				// to the shed party when the target can record it.
				if acct != nil {
					acct.NoteShedFrom(offer.Party, 1)
				} else {
					e.NoteShed(1)
				}
				return
			}
			mu.Unlock()
			if _, err := e.Submit(offer); err != nil {
				mu.Lock()
				st.Refused++
				party(offer, func(p *PartyStats) { p.Refused++ })
				mu.Unlock()
				return
			}
			mu.Lock()
			st.Submitted++
			party(offer, func(p *PartyStats) { p.Submitted++ })
			mu.Unlock()
		})
	}
	release()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return st, nil
	case <-ctx.Done():
		// Arrivals that will never fire — timers cancelled here, or
		// dropped by a scheduler closed mid-run — were generated but
		// never reached the engine; count them as refused, attributed to
		// their parties, so the books balance (Offered == Submitted +
		// Shed + Refused, per party as well as in aggregate) even on an
		// aborted run.
		refuse := func(i int) {
			if fired[i] {
				return
			}
			fired[i] = true
			st.Refused++
			party(offers[i], func(p *PartyStats) { p.Refused++ })
		}
		for i, t := range timers {
			if t.Stop() {
				wg.Done()
				mu.Lock()
				refuse(i)
				mu.Unlock()
			}
		}
		// Wait out callbacks already in flight — but only briefly: a
		// scheduler closed mid-load (an engine stopped under the run,
		// against this function's contract) drops its callbacks without
		// firing them, and cancellation must not hang on events that
		// will never run.
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
		mu.Lock()
		for i := range offers {
			refuse(i)
		}
		out := st
		mu.Unlock()
		return out, ctx.Err()
	}
}

// buildOffers generates whole barter rings (via the shared
// engine.LoadOffer shape) until the offer budget is met, deterministically from
// the seed. ringOf maps each offer back to its ring for ring-granular
// shedding.
func buildOffers(cfg Config) (offers []core.Offer, ringOf []int) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1)) // distinct stream from Schedule
	offers = make([]core.Offer, 0, cfg.Offers+cfg.RingMax)
	ringOf = make([]int, 0, cfg.Offers+cfg.RingMax)
	// Sharded placement: ring r homes to shard r mod Shards and draws
	// chains from that shard's pool; a CrossRatio draw instead alternates
	// the home pool with the next shard's, splitting the ring's members
	// across two shard books. The pools are a pure function of the
	// generation shard count, so the stream is fixed before any engine
	// exists.
	var pools [][]string
	if cfg.Shards > 1 {
		pools = shard.NewMap(cfg.Shards).Pools(4)
	}
	// ring numbers every emitted ring (organic and flood alike) so
	// ring-granular shedding stays well-defined; organic tracks only the
	// organic offer count, which alone satisfies the Offers budget —
	// flood rings ride on top. With FloodFactor == 0 the two counters
	// coincide and the stream is byte-identical to the classic generator.
	ring, floodRing, organic := 0, 0, 0
	for organic < cfg.Offers {
		size := cfg.RingMin + rng.Intn(cfg.RingMax-cfg.RingMin+1)
		group := ring
		if cfg.PartyPool > 0 {
			group = ring % cfg.PartyPool
		}
		cross := false
		if pools != nil && cfg.CrossRatio > 0 {
			cross = rng.Float64() < cfg.CrossRatio
		}
		for i := 0; i < size; i++ {
			if pools == nil {
				offers = append(offers, engine.LoadOffer(ring, i, size, group))
			} else {
				home := ring % cfg.Shards
				pool := pools[home]
				if cross && i%2 == 1 {
					pool = pools[(home+1)%cfg.Shards]
				}
				offers = append(offers, engine.LoadOfferOn(ring, i, size, group, pool[(ring+i)%len(pool)]))
			}
			ringOf = append(ringOf, ring)
		}
		organic += size
		ring++
		// Interleave the flooding coalition: FloodFactor extra rings from
		// the reused flooder identity pool after every organic ring, so
		// the flood is spread across the whole schedule rather than
		// bursting at either end.
		for f := 0; f < cfg.FloodFactor; f++ {
			fsize := cfg.RingMin + rng.Intn(cfg.RingMax-cfg.RingMin+1)
			fgroup := floodRing % cfg.FloodParties
			for i := 0; i < fsize; i++ {
				offers = append(offers, engine.FloodOffer(ring, i, fsize, fgroup))
				ringOf = append(ringOf, ring)
			}
			ring++
			floodRing++
		}
	}
	return offers, ringOf
}

// Report is an open-loop run's full result: the engine's service-level
// throughput (with latency percentiles and, under AdaptiveDelta, the Δ
// trajectory) plus the generator's own accounting.
type Report struct {
	metrics.Throughput
	// Load is the generator's intake accounting.
	Load Stats `json:"load"`
	// Profile names the arrival process that shaped the load.
	Profile string `json:"profile"`
	// OfferedRate is the configured average offered load, offers/sec.
	OfferedRate float64 `json:"offered_rate_per_sec"`
}

// Drive streams one open-loop load through an already-started engine and
// finishes it: Run, Stop (drain), conservation check, combined report.
// This is the shared tail behind RunOpenLoad and swapd's -arrival-rate
// mode, so tests and the CLI can never diverge on the drain/verify/report
// contract.
func Drive(ctx context.Context, e DriveTarget, lcfg Config) (Report, error) {
	lcfg = lcfg.withDefaults()
	stats, err := Run(ctx, e, lcfg)
	if err != nil {
		e.Stop(ctx)
		return Report{}, fmt.Errorf("loadgen: open-loop run: %w", err)
	}
	if err := e.Stop(ctx); err != nil {
		return Report{}, fmt.Errorf("loadgen: drain: %w", err)
	}
	// A recovered engine is held to ledger integrity, not strict
	// no-stranded-escrow conservation: a hard crash mid-settlement can
	// orphan an escrowed leg by design (recovery refunds what the log
	// proves; see internal/durable).
	audit := e.VerifyConservation
	if e.Recovered() {
		audit = e.VerifyLedgerIntegrity
	}
	if err := audit(); err != nil {
		return Report{}, err
	}
	rep := Report{
		Throughput:  e.Report(),
		Load:        stats,
		Profile:     lcfg.Process.Name(),
		OfferedRate: lcfg.Rate,
	}
	if rep.SwapsFailed > 0 {
		return rep, fmt.Errorf("loadgen: %d swaps failed outright", rep.SwapsFailed)
	}
	return rep, nil
}

// RunOpenLoad creates a fresh engine, streams one open-loop load through
// it via Drive, and returns the combined report: the harness behind
// BenchmarkAdaptiveDelta, the open-loop tests and the examples.
func RunOpenLoad(ecfg engine.Config, lcfg Config) (Report, error) {
	e := engine.New(ecfg)
	if err := e.Start(); err != nil {
		return Report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	return Drive(ctx, e, lcfg)
}
