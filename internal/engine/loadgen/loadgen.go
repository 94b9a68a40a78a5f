package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Target is the intake surface a load generator drives: an engine of any
// shard count satisfies it, and so does a wrapper around one (a
// benchmark's timing decorator), so every arrival process, shed rule, and
// schedule in this package works unchanged against either.
type Target interface {
	Submit(offer core.Offer) (engine.OrderID, error)
	Pending() int
	NoteShed(n int)
	Scheduler() sched.Scheduler
	Tick() time.Duration
}

// PartyAccounting is the optional per-party intake surface fair shedding
// needs: engine.Engine implements it, but Target keeps the minimal shape
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
	// chains come from per-shard pools (see engine.Map.Pools), ring r is
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
//
// A run allocates a fixed set of slabs, each party's name once, and each
// offer's asset ID: every arrival is a scheduler event in one slab, fired
// by one handler.
func Run(ctx context.Context, e Target, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	if !finitePositive(cfg.Rate) {
		return Stats{}, errors.New("loadgen: Rate must be positive and finite")
	}
	if cfg.Offers <= 0 {
		return Stats{}, errors.New("loadgen: Offers must be positive")
	}
	s := buildOffers(cfg)
	n := len(s.offers)
	ticks := Schedule(cfg.Process, n, cfg.Rate, e.Tick(), cfg.Seed)

	// Party attribution runs whenever the target supports it; the fair
	// shed POLICY additionally needs the config knob.
	acct, _ := e.(PartyAccounting)
	in := &intake{
		e:          e,
		acct:       acct,
		fair:       cfg.FairShed && acct != nil,
		maxPending: cfg.MaxPending,
		s:          s,
		rows:       make([]PartyStats, len(s.names)),
		shedRings:  make([]bool, s.ringOf[n-1]+1),
		arrivals:   make([]arrival, n),
	}
	in.st.Offered = n
	in.st.FirstTick, in.st.LastTick = ticks[0], ticks[n-1]
	for _, p := range s.partyOf {
		in.rows[p].Offered++
	}

	sc := e.Scheduler()
	in.wg.Add(n)
	// Hold the dispatcher while the schedule is installed: no arrival runs
	// before the later ones are even queued. On a free clock this is the
	// hold that adopts the birth hold (sched.NewVirtual): time has not moved
	// since the engine was built, whatever was done to it meanwhile.
	release := sc.Hold()
	for i := range in.arrivals {
		a := &in.arrivals[i]
		a.in, a.i = in, int32(i)
		sc.Schedule(&a.ev, ticks[i], 0, a)
	}
	release()

	done := make(chan struct{})
	go func() { in.wg.Wait(); close(done) }()
	select {
	case <-done:
		return in.stats(), nil
	case <-ctx.Done():
		// Arrivals that will never fire — events stopped here, or dropped
		// by a scheduler closed mid-run — were generated but never
		// reached the engine; count them as refused, attributed to their
		// parties, so the books balance (Offered == Submitted + Shed +
		// Refused, per party as well as in aggregate) even on an aborted
		// run.
		for i := range in.arrivals {
			a := &in.arrivals[i]
			if a.ev.Stop() {
				in.wg.Done()
				in.mu.Lock()
				in.refuse(a)
				in.mu.Unlock()
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
		in.mu.Lock()
		for i := range in.arrivals {
			in.refuse(&in.arrivals[i])
		}
		in.mu.Unlock()
		return in.stats(), ctx.Err()
	}
}

// intake is one Run's shared state: the generated stream, its
// accounting, and the arrival slab whose events all fire into arrive.
type intake struct {
	e          Target
	acct       PartyAccounting
	fair       bool
	maxPending int
	s          stream

	mu sync.Mutex
	st Stats // the totals; Parties is built from rows by stats
	// rows is the per-party accounting, by party number (stream.names).
	rows []PartyStats
	// shedRings makes shedding ring-granular: once any offer of a ring
	// is shed, the ring's remaining arrivals are shed too. Per-offer
	// shedding would strand partial rings in the book — offers that can
	// never match — so a transient overload could pin Pending at the
	// threshold and shed everything that follows. (Concurrent same-tick
	// arrivals can still split a ring right at the threshold crossing;
	// those stragglers are bounded per overload episode and rejected at
	// drain.)
	shedRings []bool

	wg       sync.WaitGroup
	arrivals []arrival
}

// arrival is offer i's scheduler event and its handler.
type arrival struct {
	ev sched.Event
	in *intake
	i  int32
	// fired marks an arrival whose fate is accounted (under in.mu), so the
	// cancel path's sweep and a late-firing callback never double-count.
	fired bool
}

// Fire implements sched.Handler.
func (a *arrival) Fire() { a.in.arrive(a) }

// arrive meets one arrival's fate: shed, refused or submitted.
func (in *intake) arrive(a *arrival) {
	defer in.wg.Done()
	offer, ring, row := in.s.offers[a.i], in.s.ringOf[a.i], &in.rows[in.s.partyOf[a.i]]
	in.mu.Lock()
	if a.fired {
		in.mu.Unlock() // the cancel sweep already accounted this arrival
		return
	}
	a.fired = true
	shed := in.shedRings[ring]
	if !shed && in.maxPending > 0 && in.e.Pending() >= in.maxPending {
		if in.fair {
			// Per-party fair shedding: the book budget apportioned
			// over the parties currently holding it. A party at or
			// past its share sheds; one below it (an organic party
			// facing a flood) is still admitted — up to the hard
			// 4× backstop that bounds the book absolutely.
			quota := max(in.maxPending/in.acct.PendingParties(), 1)
			if in.acct.PendingOf(offer.Party) >= quota || in.e.Pending() >= 4*in.maxPending {
				in.shedRings[ring] = true
				shed = true
			}
		} else {
			in.shedRings[ring] = true
			shed = true
		}
	}
	if shed {
		in.st.Shed++
		row.Shed++
		in.mu.Unlock()
		// Surface shedding in the engine's own counters, attributed
		// to the shed party when the target can record it.
		if in.acct != nil {
			in.acct.NoteShedFrom(offer.Party, 1)
		} else {
			in.e.NoteShed(1)
		}
		return
	}
	in.mu.Unlock()
	_, err := in.e.Submit(offer)
	in.mu.Lock()
	if err != nil {
		in.st.Refused++
		row.Refused++
	} else {
		in.st.Submitted++
		row.Submitted++
	}
	in.mu.Unlock()
}

// refuse counts an arrival that never reached the engine as refused,
// unless its fate is already accounted. Callers hold in.mu.
func (in *intake) refuse(a *arrival) {
	if a.fired {
		return
	}
	a.fired = true
	in.st.Refused++
	in.rows[in.s.partyOf[a.i]].Refused++
}

// stats is the accounting so far, its Parties map built afresh: the
// caller owns it, whatever a callback still in flight does to the rows.
func (in *intake) stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.st
	out.Parties = make(map[string]PartyStats, len(in.rows))
	for p, row := range in.rows {
		out.Parties[string(in.s.names[p])] = row
	}
	return out
}

// stream is one run's generated input in arrival order: each offer, its
// ring (for ring-granular shedding) and its offering party, numbered in
// the run's roster of names.
type stream struct {
	offers  []core.Offer
	ringOf  []int32
	partyOf []int32
	// gives is the slab every offer's one-element Give is cut from.
	gives []core.ProposedTransfer
	// assets is the one buffer every offer's asset ID is spelled into and
	// cut from. A builder only appends, so an ID cut from it keeps its
	// bytes; it is a pointer because a stream is returned by value, and a
	// strings.Builder must not be copied.
	assets *strings.Builder
	roster
}

// roster formats each identity a run uses once and numbers it: slot
// group*width+position of the organic or the flood table holds the
// party's number + 1, an index into names.
type roster struct {
	width          int
	names          []chain.PartyID
	organic, flood []int32
}

func (r *roster) party(flood bool, group, i int) int32 {
	tab, name := &r.organic, engine.LoadParty
	if flood {
		tab, name = &r.flood, engine.FloodParty
	}
	k := group*r.width + i
	if k >= len(*tab) {
		*tab = append(*tab, make([]int32, k+1-len(*tab))...)
	}
	if (*tab)[k] == 0 {
		r.names = append(r.names, name(group, i))
		(*tab)[k] = int32(len(r.names))
	}
	return (*tab)[k] - 1
}

// add appends offer i of ring `ring` (size parties, identity group
// `group` of the organic or the flood pool) on chainName, in the shape
// engine.LoadOfferOn and engine.FloodOffer build.
func (s *stream) add(ring, i, size, group int, flood bool, chainName string) {
	p, to := s.party(flood, group, i), s.party(flood, group, (i+1)%size)
	start := s.assets.Len()
	var buf [48]byte
	s.assets.Write(engine.AppendLoadAsset(buf[:0], ring, i))
	asset := chain.AssetID(s.assets.String()[start:])
	s.gives = append(s.gives, core.ProposedTransfer{})
	give := s.gives[len(s.gives)-1:]
	s.offers = append(s.offers, engine.LoadOfferInto(give, ring, asset, s.names[p], s.names[to], chainName))
	s.ringOf = append(s.ringOf, int32(ring))
	s.partyOf = append(s.partyOf, p)
}

// buildOffers generates whole barter rings (in the shared engine.LoadOffer
// shape) until the offer budget is met, deterministically from the seed.
func buildOffers(cfg Config) stream {
	rng := rand.New(rand.NewSource(cfg.Seed + 1)) // distinct stream from Schedule
	// At most ⌈Offers/RingMin⌉ organic rings, each followed by FloodFactor
	// flood rings, and the last organic ring may overshoot by RingMax-1:
	// sized once, no slab is copied as it fills.
	rings := (cfg.Offers + cfg.RingMin - 1) / cfg.RingMin
	n := cfg.Offers + cfg.RingMax + rings*cfg.FloodFactor*cfg.RingMax
	s := stream{
		offers:  make([]core.Offer, 0, n),
		ringOf:  make([]int32, 0, n),
		partyOf: make([]int32, 0, n),
		gives:   make([]core.ProposedTransfer, 0, n),
		assets:  new(strings.Builder),
		roster:  roster{width: cfg.RingMax},
	}
	// Ring numbers stay below rings*(1+FloodFactor) and positions below
	// RingMax, so no asset ID is longer than this one.
	var longest [48]byte
	s.assets.Grow(n * len(engine.AppendLoadAsset(longest[:0], rings*(1+cfg.FloodFactor), cfg.RingMax-1)))
	// Sharded placement: ring r homes to shard r mod Shards and draws
	// chains from that shard's pool; a CrossRatio draw instead alternates
	// the home pool with the next shard's, splitting the ring's members
	// across two shard books. The pools are a pure function of the
	// generation shard count, so the stream is fixed before any engine
	// exists.
	var pools [][]string
	if cfg.Shards > 1 {
		pools = engine.NewMap(cfg.Shards).Pools(4)
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
			chainName := engine.LoadChain(ring, i)
			if pools != nil {
				home := ring % cfg.Shards
				pool := pools[home]
				if cross && i%2 == 1 {
					pool = pools[(home+1)%cfg.Shards]
				}
				chainName = pool[(ring+i)%len(pool)]
			}
			s.add(ring, i, size, group, false, chainName)
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
				s.add(ring, i, fsize, fgroup, true, engine.LoadChain(ring, i))
			}
			ring++
			floodRing++
		}
	}
	return s
}

// Report is an open-loop run's full result: the engine's service-level
// throughput (with latency percentiles) plus the generator's own
// accounting.
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
// it via Drive, and returns the combined report: the harness behind the
// open-loop tests and the examples.
func RunOpenLoad(ecfg engine.Config, lcfg Config) (Report, error) {
	e := engine.New(ecfg)
	if err := e.Start(); err != nil {
		return Report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	return Drive(ctx, e, lcfg)
}
