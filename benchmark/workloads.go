package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/engine/scenario"
	"github.com/go-atomicswap/atomicswap/internal/engine/shard"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// target is the engine surface the harness drives and inspects. The
// single engine and the sharded engine both satisfy it.
type target interface {
	loadgen.Target
	loadgen.PartyAccounting
	Start() error
	Stop(ctx context.Context) error
	Orders() []engine.OrderSnapshot
	Report() metrics.Throughput
	ClearRounds() int
	VerifyCacheStats() hashkey.CacheStats
	Registry() *chain.Registry
	VerifyConservation() error
	VerifyLedgerIntegrity() error
}

// Sizes at scale 1. Each gives a 1.3-2.5 s repeat on the 2-core sizing
// box; see README.md for how they were chosen.
const (
	steadyRings   = 3000
	deepbookRings = 4000
	denseCliques  = 700
	advOffers     = 7000
	durableRings  = 1200
	shardedRings  = 3000

	steadyRate  = 1000 // offers per virtual second
	denseRate   = 600
	advRate     = 1000
	shardedRate = 1500

	partyPool     = 64
	deepbookPool  = 8
	shardCount    = 4
	crossRatio    = 0.1
	snapshotEvery = 4096

	// repeatTimeout bounds one repeat's load + drain; the driver allows a
	// whole run 180 s.
	repeatTimeout = 150 * time.Second
)

// advDeviations is the adversarial workload's deviation mix.
var advDeviations = []scenario.Deviation{
	{Strategy: "silent-leader", Rate: 0.05},
	{Strategy: "crash", Rate: 0.04},
	{Strategy: "withhold-publish", Rate: 0.03},
	{Strategy: "stall-past-timelock", Rate: 0.03},
}

// baseConfig is the engine configuration every workload starts from.
func baseConfig(seed int64) engine.Config {
	return engine.Config{
		Deterministic: true,
		Tick:          time.Millisecond,
		Delta:         20,
		ClearInterval: time.Millisecond,
		MaxBatch:      4096,
		Workers:       8,
		Seed:          seed,
	}
}

// scaled shrinks a full size for tests, never below one ring.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// run is one execution context for a workload repeat.
type run struct {
	seed  int64
	scale float64
	// tmp is where the durable workload keeps its WAL directories; it is
	// inside the checkout so a run writes nowhere else.
	tmp string
	// tr, when set, makes this the traced repeat.
	tr *tracer
	// shards and procs override the sharded workload's execution shape
	// for the scaling ladder (0 keeps the default).
	shards, procs int
}

// tracer carries the traced repeat's hooks and what they collected.
type tracer struct {
	store   *spanStore
	submits *submitTimer
}

// measured is everything one repeat of a workload produced.
type measured struct {
	use usage // the timed window: first arrival -> drain complete

	swaps   int // finished swaps
	offered int // orders offered to the engine
	failed  int // orders that did not end in a legal terminal state

	settleTicks  []float64 // submit -> settle per settled order
	settleWallMs []float64
	lateTicks    []float64 // booked tick - scheduled arrival tick
	chainBytes   int       // on-chain storage, all chains
	rounds       int       // active clearing rounds
	recoverMs    float64   // durable: cold recovery of the repeat's WAL

	// safety lists broken safety invariants (the run is incorrect);
	// notes lists operational failures (they only raise failed).
	safety []string
	notes  []string

	report metrics.Throughput
	layer  map[string]float64 // per-layer metrics this repeat could measure
	spans  []span             // traced repeat only
	// batch is the median number of swaps a dispatching clearing round
	// cleared (traced repeat only): the core probes' book size.
	batch int
}

// load is a workload's generated input and the way it arrives.
type load struct {
	offered int
	// ticks is the scheduled arrival tick of each offer, in submission
	// order (nil for the closed-loop book, which has no schedule).
	ticks []vtime.Ticks
	// drive submits the load and returns once the last arrival fired.
	drive func(ctx context.Context, t loadgen.Target) (shed, refused int, err error)
}

// openLoad is a Poisson open-loop ring load driven by loadgen.Run, which
// generates offers and schedule itself from the config's seed.
func openLoad(cfg loadgen.Config, rings int) load {
	cfg.Offers = 3 * rings
	cfg.RingMin, cfg.RingMax = 3, 3
	cfg.Process = loadgen.Poisson{}
	return load{
		offered: cfg.Offers,
		ticks:   loadgen.Schedule(cfg.Process, cfg.Offers, cfg.Rate, time.Millisecond, cfg.Seed),
		drive: func(ctx context.Context, t loadgen.Target) (int, int, error) {
			st, err := loadgen.Run(ctx, t, cfg)
			return st.Shed, st.Refused, err
		},
	}
}

// closedBook submits every offer before the first clearing round: the
// clock is held at tick 0 until the whole book is in.
func closedBook(offers []core.Offer) load {
	return load{
		offered: len(offers),
		drive: func(_ context.Context, t loadgen.Target) (int, int, error) {
			release := t.Scheduler().Hold()
			defer release()
			refused := 0
			for _, o := range offers {
				if _, err := t.Submit(o); err != nil {
					refused++
				}
			}
			return 0, refused, nil
		},
	}
}

// scheduled submits offers[i] from a scheduler callback at ticks[i] —
// the harness-owned open loop, for offer shapes loadgen cannot generate.
func scheduled(offers []core.Offer, ticks []vtime.Ticks) load {
	return load{
		offered: len(offers),
		ticks:   ticks,
		drive: func(_ context.Context, t loadgen.Target) (int, int, error) {
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				refused int
			)
			wg.Add(len(offers))
			sc := t.Scheduler()
			release := sc.Hold()
			for i := range offers {
				o := offers[i]
				sc.At(ticks[i], func() {
					defer wg.Done()
					if _, err := t.Submit(o); err != nil {
						mu.Lock()
						refused++
						mu.Unlock()
					}
				})
			}
			release()
			wg.Wait()
			return 0, refused, nil
		},
	}
}

// ringBook is the closed-loop book: rings three-party rings over a small
// identity pool, so only pool rings can clear per round while the rest
// of the book sits behind them.
func ringBook(rings, pool int) []core.Offer {
	offers := make([]core.Offer, 0, 3*rings)
	for r := 0; r < rings; r++ {
		for i := 0; i < 3; i++ {
			offers = append(offers, engine.LoadOffer(r, i, 3, r%pool))
		}
	}
	return offers
}

var cliqueChains = []string{"btc", "eth", "sol", "ada"}

// cliqueOffers builds four-party complete digraphs: every party gives a
// distinct asset to each of the other three (12 arcs, 3 leaders).
func cliqueOffers(cliques, pool int) []core.Offer {
	const size = 4
	offers := make([]core.Offer, 0, size*cliques)
	for c := 0; c < cliques; c++ {
		group := c % pool
		for i := 0; i < size; i++ {
			o := core.Offer{Party: chain.PartyID(fmt.Sprintf("k%d-p%d", group, i))}
			for j := 0; j < size; j++ {
				if j == i {
					continue
				}
				o.Give = append(o.Give, core.ProposedTransfer{
					To:     chain.PartyID(fmt.Sprintf("k%d-p%d", group, j)),
					Chain:  cliqueChains[(c+i+j)%len(cliqueChains)],
					Asset:  chain.AssetID(fmt.Sprintf("kasset-%d-%d-%d", c, i, j)),
					Amount: uint64(1 + c%89),
				})
			}
			offers = append(offers, o)
		}
	}
	return offers
}

// engineWorkload describes a workload the harness runs on an engine it
// builds itself (everything but adversarial).
type engineWorkload struct {
	// config is the engine configuration, before the store is attached.
	config func(r run) engine.Config
	// sharded builds shard.New over config instead of engine.New.
	sharded bool
	// load generates the repeat's input.
	load func(r run) load
	// durable runs the engine over a durable.Store and times a cold
	// recovery of what the repeat wrote.
	durable bool
}

// build constructs the workload's fresh engine (single or sharded) over
// store.
func (w engineWorkload) build(r run, store engine.Store) target {
	c := w.config(r)
	c.Store = store
	if !w.sharded {
		return engine.New(c)
	}
	n := shardCount
	if r.shards > 0 {
		n = r.shards
	}
	return shard.New(shard.Config{Shards: n, Engine: c})
}

func baseOf(r run) engine.Config { return baseConfig(r.seed) }

// ringLoad is the open-loop Poisson three-party ring load.
func ringLoad(rings int, rate float64, tweak func(*loadgen.Config)) func(run) load {
	return func(r run) load {
		cfg := loadgen.Config{Rate: rate, PartyPool: partyPool, Seed: r.seed}
		if tweak != nil {
			tweak(&cfg)
		}
		return openLoad(cfg, scaled(rings, r.scale))
	}
}

// workloads lists every workload in BENCHMARK.json order.
func workloads() []workload {
	steady := engineWorkload{config: baseOf, load: ringLoad(steadyRings, steadyRate, nil)}
	// The harness-generated offers are a function of the size alone, so
	// they are built once per process, like the ring workloads' — which
	// loadgen.Run generates inside the timed window — and set-up means
	// the same thing on every workload: stand the system up, not format
	// thousands of offers.
	book := once(func(rings int) []core.Offer { return ringBook(rings, deepbookPool) })
	cliques := once(func(n int) []core.Offer { return cliqueOffers(n, partyPool) })
	deepbook := engineWorkload{config: baseOf, load: func(r run) load {
		return closedBook(book(scaled(deepbookRings, r.scale)))
	}}
	dense := engineWorkload{config: baseOf, load: func(r run) load {
		offers := cliques(scaled(denseCliques, r.scale))
		ticks := loadgen.Schedule(loadgen.Poisson{}, len(offers), denseRate, time.Millisecond, r.seed)
		return scheduled(offers, ticks)
	}}
	durableWAL := engineWorkload{config: baseOf, load: ringLoad(durableRings, steadyRate, nil), durable: true}
	sharded := engineWorkload{
		sharded: true,
		config: func(r run) engine.Config {
			c := baseConfig(r.seed)
			c.Parallel = true
			c.ClearEvery = 2
			return c
		},
		load: ringLoad(shardedRings, shardedRate, func(c *loadgen.Config) {
			c.MaxPending = -1
			// Generation placement is fixed at shardCount whatever shard
			// count executes the stream, so ladder rows share one input.
			c.Shards = shardCount
			c.CrossRatio = crossRatio
		}),
	}
	return []workload{
		steady.workload("steady", 5, ringShape(3), map[string]any{
			"loop": "open", "arrivals": "poisson", "rate_offers_per_vs": steadyRate,
			"rings": steadyRings, "ring_size": 3, "party_pool": partyPool,
		}),
		deepbook.workload("deepbook", 3, ringShape(3), map[string]any{
			"loop": "closed", "rings": deepbookRings, "ring_size": 3, "party_pool": deepbookPool,
		}),
		dense.workload("dense", 5, cliqueShape, map[string]any{
			"loop": "open", "arrivals": "poisson", "rate_offers_per_vs": denseRate,
			"cliques": denseCliques, "clique_size": 4, "party_pool": partyPool,
		}),
		{
			name: "adversarial", minRepeats: 5, shape: ringShape(4),
			setup: setupAdversarial, repeat: runAdversarial,
			params: map[string]any{
				"loop": "open", "arrivals": "poisson", "rate_offers_per_vs": advRate,
				"offers": advOffers, "ring_min": 3, "ring_max": 5, "party_pool": partyPool,
				"deviations": advDeviations,
			},
		},
		durableWAL.workload("durable", 5, ringShape(3), map[string]any{
			"loop": "open", "arrivals": "poisson", "rate_offers_per_vs": steadyRate,
			"rings": durableRings, "ring_size": 3, "party_pool": partyPool, "snapshot_every": snapshotEvery,
		}),
		sharded.workload("sharded", 5, ringShape(3), map[string]any{
			"loop": "open", "arrivals": "poisson", "rate_offers_per_vs": shardedRate,
			"rings": shardedRings, "ring_size": 3, "party_pool": partyPool,
			"shards": shardCount, "cross_ratio": crossRatio, "parallel": true, "clear_every": 2, "max_pending": -1,
		}),
	}
}

// once wraps an offer generator so that repeated calls for the same
// size reuse the first result (offers are read-only once built).
func once(gen func(n int) []core.Offer) func(n int) []core.Offer {
	var offers []core.Offer
	size := -1
	return func(n int) []core.Offer {
		if n != size {
			offers, size = gen(n), n
		}
		return offers
	}
}

// workload wraps an engine workload for the runner.
func (w engineWorkload) workload(name string, minRepeats int, sh shape, params map[string]any) workload {
	return workload{
		name: name, minRepeats: minRepeats, params: params, shape: sh,
		setup: w.setup, repeat: w.repeat, hooked: true, ladder: w.sharded,
	}
}

// prepared is a stood-up, started, still-idle system with its input
// generated: the state a repeat's timed window opens on.
type prepared struct {
	r      run
	t      target
	intake loadgen.Target
	ld     load
	wal    *durable.Store
	dir    string
	prepS  float64
}

// prepare is a workload's set-up: create the WAL directory and store
// (durable), generate the input from the seed, construct the engine or
// shards, install the trace hooks (traced repeat) and Start.
func (w engineWorkload) prepare(r run) (*prepared, error) {
	begin := time.Now()
	p := &prepared{r: r}
	var store engine.Store
	if w.durable {
		var err error
		if p.dir, err = os.MkdirTemp(r.tmp, "wal-"); err != nil {
			return nil, err
		}
		if p.wal, err = durable.Open(durable.Options{Dir: p.dir, SnapshotEvery: snapshotEvery}); err != nil {
			os.RemoveAll(p.dir)
			return nil, err
		}
		store = p.wal
	}
	p.ld = w.load(r)
	if r.tr != nil {
		r.tr.store = newSpanStore(store, 32*p.ld.offered)
		store = r.tr.store
	}
	p.t = w.build(r, store)
	if err := p.t.Start(); err != nil {
		p.discard()
		return nil, err
	}
	p.intake = p.t
	if r.tr != nil {
		r.tr.submits = &submitTimer{target: p.t, dur: make([]int64, 0, p.ld.offered)}
		p.intake = r.tr.submits
	}
	p.prepS = time.Since(begin).Seconds()
	return p, nil
}

// discard tears a prepared system down without running its load.
func (p *prepared) discard() {
	// Nothing was submitted and nothing logged that anyone will read:
	// neither the drain nor the WAL close has an error worth reporting.
	_ = p.t.Stop(context.Background())
	if p.wal != nil {
		_ = p.wal.Close()
		os.RemoveAll(p.dir)
	}
}

// setup is one dry set-up: prepare, then tear down unused.
func (w engineWorkload) setup(r run) (float64, error) {
	p, err := w.prepare(r)
	if err != nil {
		return 0, err
	}
	p.discard()
	return p.prepS, nil
}

// repeat is one repeat of an engine workload: prepare, drive, drain,
// audit, collect. It never aborts on a failed audit — failures are
// counted into the outcome and the caller decides the exit status.
func (w engineWorkload) repeat(r run) (*measured, error) {
	if r.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.procs))
	}
	p, err := w.prepare(r)
	if err != nil {
		return nil, err
	}
	if p.dir != "" {
		defer os.RemoveAll(p.dir)
	}
	out := &measured{layer: make(map[string]float64)}
	ctx, cancel := context.WithTimeout(context.Background(), repeatTimeout)
	defer cancel()

	win := openWindow()
	shed, refused, err := p.ld.drive(ctx, p.intake)
	if err != nil {
		p.discard()
		return nil, fmt.Errorf("load: %w", err)
	}
	stopErr := p.t.Stop(ctx)
	out.use = win.close()
	if stopErr != nil {
		out.notes = append(out.notes, "drain: "+stopErr.Error())
	}
	out.offered = p.ld.offered
	out.failed = shed + refused
	orders := p.t.Orders()
	out.classify(orders)
	booked := make([]int64, len(orders))
	for i, s := range orders {
		booked[i] = int64(s.SubmittedTick)
	}
	out.late(booked, p.ld.ticks)
	out.report = p.t.Report()
	out.swaps = out.report.SwapsFinished - out.report.SwapsFailed
	out.rounds = p.t.ClearRounds()
	out.chainBytes = p.t.Registry().TotalStorageBytes()
	if p.wal != nil {
		out.recoverWAL(ctx, p)
	}
	out.audit(p.t)
	out.engineLayers(p.t)
	if r.tr != nil {
		out.tracedLayers(p.t, r.tr)
	}
	return out, nil
}

// recoverWAL closes the repeat's store and times a cold recovery of the
// directory it wrote.
func (o *measured) recoverWAL(ctx context.Context, p *prepared) {
	begin := time.Now()
	if err := p.wal.Close(); err != nil {
		o.notes = append(o.notes, "wal: "+err.Error())
	}
	o.layer["durable.close_sync_ms"] = msSince(begin)
	o.layer["durable.dir_bytes_per_swap"] = float64(dirBytes(p.dir)) / float64(max(o.swaps, 1))
	e, rec, err := durable.Recover(baseConfig(p.r.seed), durable.RecoverOptions{Dir: p.dir})
	if err != nil {
		o.notes = append(o.notes, "recover: "+err.Error())
		o.failed++
		return
	}
	_ = e.Stop(ctx) // never started: this only releases its scheduler goroutine
	o.recoverMs = rec.WallMs
	o.layer["durable.recover.events"] = float64(rec.Events)
	o.layer["durable.recover.events_per_s"] = float64(rec.Events) / (rec.WallMs / 1000)
}

// classify sorts the run's orders into settled samples and failures.
// An order fails when it did not settle (still pending or executing at
// drain, or rejected — which includes members of swaps that failed
// outright), or when a conforming party ended Underwater; the latter
// also breaks the paper's safety invariant (Theorem 4.9).
func (o *measured) classify(orders []engine.OrderSnapshot) {
	for _, s := range orders {
		switch {
		case s.Status != engine.StatusSettled:
			o.failed++
		case s.Deviant == "" && s.Class == outcome.Underwater:
			o.failed++
			o.safety = append(o.safety, fmt.Sprintf("conforming party %s of %s ended Underwater", s.Party, s.Swap))
		default:
			o.settleTicks = append(o.settleTicks, float64(s.SettledTick.Sub(s.SubmittedTick)))
			o.settleWallMs = append(o.settleWallMs, float64(s.Latency)/float64(time.Millisecond))
		}
	}
}

// late measures how far behind its schedule each arrival was booked. In
// deterministic mode an arrival callback submits at exactly its tick, so
// anything but zero means the booked tick drifted off the arrival tick.
// Both sides are sorted: with every arrival accepted the i-th booked
// order is the i-th scheduled arrival.
func (o *measured) late(booked []int64, ticks []vtime.Ticks) {
	if ticks == nil || len(booked) != len(ticks) {
		return
	}
	slices.Sort(booked)
	due := make([]int64, len(ticks))
	for i, t := range ticks {
		due[i] = int64(t)
	}
	slices.Sort(due)
	o.lateTicks = make([]float64, len(booked))
	for i := range booked {
		o.lateTicks[i] = float64(booked[i] - due[i])
	}
}

// audit runs both ledger audits. A broken hash chain, a vanished asset
// or a changed amount is a safety failure; an asset stranded in escrow
// with every ledger intact is an operational one.
func (o *measured) audit(t target) {
	if err := t.VerifyLedgerIntegrity(); err != nil {
		o.safety = append(o.safety, err.Error())
		return
	}
	if err := t.VerifyConservation(); err != nil {
		o.failed++
		o.notes = append(o.notes, err.Error())
	}
}

// engineLayers records the per-layer counts the engine exposes for free
// after a drain; they are collected on every repeat.
func (o *measured) engineLayers(t target) {
	o.layer["engine.clear.rounds"] = float64(o.rounds)
	o.layer["hashkey.signs_per_swap"] = o.report.SignsPerSwap
	cs := t.VerifyCacheStats()
	o.layer["hashkey.cache.hits"] = float64(cs.Hits)
	o.layer["hashkey.cache.fastpath"] = float64(cs.Fastpath)
	o.layer["hashkey.cache.misses"] = float64(cs.Misses)
	if total := cs.Hits + cs.Fastpath + cs.Misses; total > 0 {
		o.layer["hashkey.cache.hit_ratio"] = float64(cs.Hits+cs.Fastpath) / float64(total)
	}
	if sh, ok := t.(*shard.ShardedEngine); ok {
		o.shardLayers(sh)
	}
}

// shardLayers reads the coordinator's and each shard's own report.
func (o *measured) shardLayers(sh *shard.ShardedEngine) {
	cross := sh.Coordinator().Report().SwapsFinished
	o.layer["shard.cross_swaps"] = float64(cross)
	if o.swaps > 0 {
		o.layer["shard.cross_share"] = float64(cross) / float64(o.swaps)
	}
	most, sum := 0, 0
	for i := 0; i < sh.Shards(); i++ {
		n := sh.Shard(i).Report().SwapsFinished
		most, sum = max(most, n), sum+n
	}
	if sum > 0 {
		o.layer["shard.balance"] = float64(most) * float64(sh.Shards()) / float64(sum)
	}
}

// tracedLayers turns what the traced repeat's hooks collected, plus the
// ledgers, into per-layer metrics and the span list.
func (o *measured) tracedLayers(t target, tr *tracer) {
	swaps := float64(max(o.swaps, 1))

	sub := summarizeNs(tr.submits.dur)
	o.layer["engine.submit.count"] = float64(sub.N)
	o.layer["engine.submit.busy_s"] = sumNs(tr.submits.dur) / 1e9
	o.layer["engine.submit.p99_us"] = sub.Tail / 1e3

	orders, trails := timelines(tr.store.events)
	var waitTicks, waitMs, escTicks []float64
	for _, ot := range orders {
		if !ot.booked.ok || !ot.cleared.ok {
			continue
		}
		waitTicks = append(waitTicks, float64(ot.cleared.tick-ot.booked.tick))
		waitMs = append(waitMs, float64(ot.cleared.ns-ot.booked.ns)/1e6)
		if ot.rebooked.ok {
			// Escalated order: the coordinator's clearing tick is the end
			// of its wait for a cross-shard match.
			escTicks = append(escTicks, float64(ot.cleared.tick-ot.booked.tick))
		}
	}
	wt := summarize(waitTicks)
	o.layer["engine.book_wait.p50_ticks"] = wt.P50
	o.layer["engine.book_wait.p99_ticks"] = wt.Tail
	o.layer["engine.book_wait.p50_ms"] = summarize(waitMs).P50
	if len(escTicks) > 0 {
		o.layer["shard.escalation_wait.p50_ticks"] = summarize(escTicks).P50
	}

	var one, two, wall []float64
	perRound := map[int64]float64{} // swaps cleared, by clearing tick
	for _, s := range trails {
		if s.cleared.ok {
			perRound[s.cleared.tick]++
		}
		if s.start.ok && s.reveal.ok {
			one = append(one, float64(s.reveal.tick-s.start.tick))
		}
		if s.reveal.ok && s.settled.ok {
			two = append(two, float64(s.settled.tick-s.reveal.tick))
		}
		if s.start.ok && s.settled.ok {
			wall = append(wall, float64(s.settled.ns-s.start.ns)/1e6)
		}
	}
	o.layer["conc.phase_one.p50_ticks"] = summarize(one).P50
	o.layer["conc.phase_two.p50_ticks"] = summarize(two).P50
	o.layer["conc.swap_wall.p50_ms"] = summarize(wall).P50
	o.batch = int(summarize(slices.Collect(maps.Values(perRound))).P50)

	o.spans = buildSpans(trails)
	self := selfTimes(o.spans)
	var total int64
	for _, ns := range self {
		total += ns
	}
	if total > 0 {
		o.layer["engine.book_wait.time_share"] = float64(self[spanBookWait]) / float64(total)
		o.layer["conc.run.time_share"] = float64(self[spanRun]+self[spanPhaseOne]+self[spanPhaseTwo]) / float64(total)
		o.layer["engine.settle.time_share"] = float64(self[spanSettle]+self[spanSwap]) / float64(total)
	}

	kinds := map[string]int{}
	for _, name := range t.Registry().Names() {
		for _, rec := range t.Registry().Chain(name).Records() {
			switch rec.Kind {
			case chain.NoteContractPublished:
				kinds["publish"]++
			case chain.NoteInvocation:
				method, _, _ := strings.Cut(rec.Note, ":")
				kinds[method]++
			}
			kinds["records"]++
		}
	}
	o.layer["chain.records_per_swap"] = float64(kinds["records"]) / swaps
	o.layer["chain.publish_per_swap"] = float64(kinds["publish"]) / swaps
	o.layer["chain.unlock_per_swap"] = float64(kinds[htlc.MethodUnlock]) / swaps
	o.layer["chain.claim_per_swap"] = float64(kinds[htlc.MethodClaim]) / swaps
	o.layer["chain.refund_per_swap"] = float64(kinds[htlc.MethodRefund]) / swaps

	if tr.store.appends != nil {
		ap := summarizeNs(tr.store.appends)
		o.layer["durable.appends_per_swap"] = float64(ap.N) / swaps
		o.layer["durable.append.busy_s"] = sumNs(tr.store.appends) / 1e9
		o.layer["durable.append.p50_us"] = ap.P50 / 1e3
		o.layer["durable.append.p99_us"] = ap.Tail / 1e3
		o.layer["durable.append.max_ms"] = float64(slices.Max(tr.store.appends)) / 1e6
	}
}

func summarizeNs(ns []int64) dist {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return summarize(f)
}

func sumNs(ns []int64) float64 {
	var s int64
	for _, v := range ns {
		s += v
	}
	return float64(s)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			total += info.Size()
		}
	}
	return total
}

// advScenario is the adversarial workload: scenario.Run owns the engine,
// so the harness sees only its result.
func advScenario(r run) scenario.Scenario {
	return scenario.Scenario{
		Name:       "bench-adversarial",
		Seed:       r.seed,
		Offers:     scaled(advOffers, r.scale),
		Rate:       advRate,
		Profile:    "poisson",
		RingMin:    3,
		RingMax:    5,
		PartyPool:  partyPool,
		Workers:    8,
		Delta:      20,
		ClearEvery: 1,
		Deviations: advDeviations,
	}
}

// runAdversarial is one repeat of the adversarial workload. The timed
// window is the whole scenario.Run call (engine construction included:
// the scenario owns it). Layer numbers come from the digest alone.
func runAdversarial(r run) (*measured, error) {
	out := &measured{layer: make(map[string]float64)}
	sc := advScenario(r)
	win := openWindow()
	res, err := scenario.Run(sc)
	out.use = win.close()
	if err != nil {
		return nil, err
	}
	d := res.Digest
	out.report = res.Report
	out.offered = d.Offered
	out.failed = d.Shed + d.Refused
	out.swaps = d.SwapsFinished - d.SwapsFailed
	out.rounds = d.ClearRounds
	for _, v := range res.Violations {
		out.safety = append(out.safety, v.Detail)
	}
	refunded := 0
	booked := make([]int64, 0, len(d.Orders))
	for _, od := range d.Orders {
		booked = append(booked, od.SubmitTick)
		switch {
		case od.Status != engine.StatusSettled.String():
			out.failed++
		case od.Deviant == "" && od.Class == outcome.Underwater.String():
			out.failed++ // scenario.Run already listed it as a violation
		default:
			out.settleTicks = append(out.settleTicks, float64(od.SettleTick-od.SubmitTick))
		}
		if od.Class == outcome.NoDeal.String() {
			refunded++
		}
	}
	// The scenario hands loadgen its own seed and a Poisson process, so
	// the arrival schedule can be rebuilt from the offer count.
	out.late(booked, loadgen.Schedule(loadgen.Poisson{}, d.Offered, advRate, time.Millisecond, sc.Seed))
	settled := max(len(out.settleTicks), 1)
	out.layer["engine.clear.rounds"] = float64(d.ClearRounds)
	out.layer["hashkey.signs_per_swap"] = res.Report.SignsPerSwap
	out.layer["scenario.deviant_swap_share"] = float64(d.OrdersSabotaged) / float64(settled)
	out.layer["scenario.refund_share"] = float64(refunded) / float64(settled)
	if e := d.Economics; e != nil {
		out.layer["metrics.griefing_cost_token_ticks"] = float64(e.GriefingCostTokenTicks)
		out.layer["metrics.conforming_lock_token_ticks"] = float64(e.ConformingLockTokenTicks)
	}
	return out, nil
}
