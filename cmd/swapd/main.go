// Command swapd is the clearing-engine load driver: it spins up an
// engine, floods it with generated barter-ring offers (optionally with
// adversarial swaps and deliberate double-spend attempts), drains, and
// reports service-level throughput.
//
// Usage:
//
//	swapd [-offers 3000] [-workers 64] [-adversary 0.1] [-conflicts 0.05]
//	      [-tick 2ms] [-delta 30] [-vtime]
//	      [-seed 1] [-json]
//	swapd -arrival-rate 2000 [-profile poisson] [-party-pool 64]
//	      [-max-pending 4096] ...
//	swapd -shards 4 [-cross-ratio 0.1] ...
//	swapd -data-dir /tmp/swapd ...
//	swapd -confirm-depth 4 [-reorg-rate 0.15] ...
//
// With -shards N clearing is partitioned across N asset shards (each with
// its own order book and clearing loop) plus a two-level coordinator that
// clears rings spanning shards; with
// -arrival-rate the generated rings are placed into per-shard chain
// pools, and -cross-ratio makes that fraction of rings span two shards.
// -shards composes with -data-dir: the whole deployment logs into one
// WAL and a restart may recover onto a different shard count.
//
// With -data-dir the engine logs every event to a durable write-ahead
// log (with periodic snapshot truncation) in that directory. On a
// restart against the same directory swapd recovers instead of starting
// fresh: the log is replayed, each swap that was in flight at the kill
// is resumed or refunded by its logged phase and remaining timelock
// budget, and the run continues with recovery counters in the report.
// Kill-and-restart demo: start a long run with -data-dir, `kill -9` it
// mid-flight, re-run the same command, and watch the recovery line.
//
// With -confirm-depth every asset chain runs under a confirmation-depth
// commitment model: a record is final only that many ticks after it
// lands, the timelock ladder stretches by the per-chain depth, and the
// report carries per-chain Δ. Adding -reorg-rate reverts each record
// with that seeded probability before it finalizes (transaction-level
// reorgs); reverted swaps re-settle or refund, and the report counts
// the reverted records.
//
// By default the whole book is submitted up front (closed loop). With
// -arrival-rate offers instead stream in open-loop from the -profile
// arrival process (constant, poisson, burst[:n], ramp[:from:to]) at the
// given average offers/sec on the engine's scheduler; the report then
// carries submit-to-settle latency percentiles. With -json the report is
// a single JSON object; otherwise a human-readable summary. One point of a
// shard × cross-ratio or offered-rate ladder is one run:
// swapd -vtime -shards N -cross-ratio R -arrival-rate X -json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

var chainNames = []string{"btc", "eth", "sol", "ada", "dot", "xmr", "ltc", "atom"}

// Generated barter rings have between ringMin and ringMax parties.
const ringMin, ringMax = 2, 5

// snapshotEvery is how many WAL events a -data-dir run logs between
// snapshots (each one truncates the log).
const snapshotEvery = 4096

// flagValues are the parsed flags checkFlags judges.
type flagValues struct {
	adversary, conflicts, arrivalRate, crossRatio, reorgRate float64
	fairShed                                                 bool
	floodFactor, shards, confirmDepth                        int
}

// checkFlags refuses flag values swapd cannot run as asked. A fraction
// must lie in [0, 1] and -arrival-rate must be finite and not negative;
// each range check is written so that NaN, which fails every comparison,
// fails it too instead of switching the feature off.
func checkFlags(f flagValues) error {
	for _, fr := range []struct {
		name string
		v    float64
	}{
		{"-adversary", f.adversary},
		{"-conflicts", f.conflicts},
		{"-cross-ratio", f.crossRatio},
		{"-reorg-rate", f.reorgRate},
	} {
		if !(fr.v >= 0 && fr.v <= 1) {
			return fmt.Errorf("%s must be in [0, 1], got %v", fr.name, fr.v)
		}
	}
	if !(f.arrivalRate >= 0) || math.IsInf(f.arrivalRate, 1) {
		return fmt.Errorf("-arrival-rate must be finite and not negative, got %v", f.arrivalRate)
	}
	if f.arrivalRate > 0 && f.conflicts > 0 {
		return errors.New("-conflicts is a closed-loop feature; drop it or -arrival-rate")
	}
	if (f.fairShed || f.floodFactor > 0) && f.arrivalRate == 0 {
		return errors.New("-fair-shed and -flood-factor are open-loop features; add -arrival-rate")
	}
	if f.crossRatio > 0 && (f.shards <= 1 || f.arrivalRate == 0) {
		return errors.New("-cross-ratio needs -shards > 1 and -arrival-rate")
	}
	if f.reorgRate > 0 && f.confirmDepth < 2 {
		return errors.New("-reorg-rate needs -confirm-depth >= 2 (a revert must land before finality)")
	}
	return nil
}

// runOpenLoop streams an open-loop load into the started engine and
// reports, mirroring the closed-loop tail of main.
func runOpenLoop(eng *engine.Engine, lcfg loadgen.Config, timeout time.Duration, jsonOut bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	rep, err := loadgen.Drive(ctx, eng, lcfg)
	if err != nil {
		log.Fatalf("open-loop run: %v", err)
	}
	if jsonOut {
		b, err := json.Marshal(rep)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("open-loop load: %s arrivals at %.0f offers/sec over ticks [%d, %d]\n",
			rep.Profile, rep.OfferedRate, rep.Load.FirstTick, rep.Load.LastTick)
		fmt.Printf("intake: %d offered, %d submitted, %d shed, %d refused, conservation verified\n\n",
			rep.Load.Offered, rep.Load.Submitted, rep.Load.Shed, rep.Load.Refused)
		fmt.Println(rep.Throughput)
		printDispatch(eng)
	}
}

// printDispatch closes the report with where the work ran: what a striped
// scheduler did with its batches (how many it ran alone, how often it sent
// for help), and how many signatures were presigned on a spare core.
// Each line is printed only when there is something to report.
func printDispatch(eng *engine.Engine) {
	if st := eng.Scheduler().(*sched.Virtual).Stats(); st.Batches > 0 {
		fmt.Println(st)
	}
	if st := eng.Keyring().SignStats(); st.Signs > 0 {
		fmt.Println(st)
	}
}

// durableEngine builds the -data-dir engine: recover from the directory
// when it holds state (a restart), otherwise open a fresh store and log
// into it. Either way the engine keeps appending, so the next
// kill-and-restart recovers again. Every shard logs into the one WAL, and
// recovery re-partitions the folded state onto the (possibly different)
// shard count of this run.
func durableEngine(cfg engine.Config, dir string) (*engine.Engine, error) {
	opts := durable.RecoverOptions{Dir: dir, Attach: true, SnapshotEvery: snapshotEvery}
	eng, rec, err := durable.Recover(cfg, opts)
	if err == nil {
		fmt.Fprintf(os.Stderr,
			"recovered %s: %d events replayed, %d orders resumed, %d refunded, resuming at tick %d (%.1fms)\n",
			dir, rec.Events, rec.Resumed, rec.Refunded, rec.Tick, rec.WallMs)
		return eng, nil
	}
	if !errors.Is(err, durable.ErrNoState) {
		return nil, err
	}
	store, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, err
	}
	cfg.Store = store
	return engine.New(cfg), nil
}

func main() {
	var (
		offers    = flag.Int("offers", 3000, "approximate number of offers to submit")
		workers   = flag.Int("workers", 64, "dispatch helpers, and live swaps on the paced clock (engine Workers)")
		adversary = flag.Float64("adversary", 0, "fraction of swaps given a silent leader")
		conflicts = flag.Float64("conflicts", 0, "fraction of rings that re-spend an earlier asset")
		tick      = flag.Duration("tick", 2*time.Millisecond, "wall duration of one virtual tick")
		delta     = flag.Int("delta", 30, "per-swap delta in ticks")
		vtimeMode = flag.Bool("vtime", false, "run on a free clock, striped over -workers (ticks advance as callbacks drain: CPU-bound and replayable) instead of one paced by the wall at -tick")
		seed      = flag.Int64("seed", 1, "load-generation seed")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		timeout   = flag.Duration("timeout", 10*time.Minute, "drain deadline")

		arrivalRate = flag.Float64("arrival-rate", 0, "open-loop intake: average offered load in offers/sec (0 = closed-loop, book pre-loaded)")
		profile     = flag.String("profile", "poisson", "arrival process for -arrival-rate: constant, poisson, burst[:n], ramp[:from:to]")
		partyPool   = flag.Int("party-pool", 0, "open-loop: reuse this many ring-group identities (0 = fresh parties per ring)")
		maxPending  = flag.Int("max-pending", 0, "open-loop shed threshold on the pending book (0 = default, negative = never shed)")
		fairShed    = flag.Bool("fair-shed", false, "open-loop: per-party fair shedding — at the -max-pending threshold only parties at or past their share of the book shed (a flooding coalition starves itself, not its victims)")
		floodFactor = flag.Int("flood-factor", 0, "open-loop: ride this many coalition flood rings (from a small reused identity pool) on every organic ring")

		shards     = flag.Int("shards", 0, "partition clearing across N asset shards plus a cross-shard coordinator (0 or 1 = one engine, no coordinator)")
		crossRatio = flag.Float64("cross-ratio", 0, "with -shards and -arrival-rate: fraction of generated rings that span two shards (cross-shard escalation load)")

		dataDir = flag.String("data-dir", "", "durable state directory: log engine events to a WAL (snapshotted and truncated as it grows) and recover from it on restart")

		confirmDepth = flag.Int("confirm-depth", 0, "chain realism: a record is final only this many ticks after it lands (0 = instant finality); the timelock ladder stretches to match")
		reorgRate    = flag.Float64("reorg-rate", 0, "with -confirm-depth >= 2: seeded per-record probability that an applied record reverts before finalizing")
	)
	flag.Parse()
	if err := checkFlags(flagValues{
		adversary:    *adversary,
		conflicts:    *conflicts,
		arrivalRate:  *arrivalRate,
		fairShed:     *fairShed,
		floodFactor:  *floodFactor,
		shards:       *shards,
		crossRatio:   *crossRatio,
		confirmDepth: *confirmDepth,
		reorgRate:    *reorgRate,
	}); err != nil {
		log.Fatal(err)
	}

	cfg := engine.Config{
		Workers:       *workers,
		MaxBatch:      4096,
		Tick:          *tick,
		Delta:         vtime.Duration(*delta),
		AdversaryRate: *adversary,
		Seed:          *seed,
		Parallel:      *vtimeMode,
		Commitment: engine.CommitmentConfig{
			ConfirmDepth: vtime.Duration(*confirmDepth),
			ReorgRate:    *reorgRate,
			Seed:         *seed,
		},
		Shards: *shards,
	}
	var eng *engine.Engine
	if *dataDir == "" {
		eng = engine.New(cfg)
	} else {
		var err error
		if eng, err = durableEngine(cfg, *dataDir); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}

	if *arrivalRate > 0 {
		proc, err := loadgen.ParseProfile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		runOpenLoop(eng, loadgen.Config{
			Offers:      *offers,
			RingMin:     ringMin,
			RingMax:     ringMax,
			Rate:        *arrivalRate,
			Process:     proc,
			PartyPool:   *partyPool,
			MaxPending:  *maxPending,
			Seed:        *seed,
			Shards:      *shards,
			CrossRatio:  *crossRatio,
			FairShed:    *fairShed,
			FloodFactor: *floodFactor,
		}, *timeout, *jsonOut)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	submitted, rejected := 0, 0
	var lastRingAsset core.ProposedTransfer
	var lastRingParty chain.PartyID
	for ring := 0; submitted < *offers; ring++ {
		size := ringMin + rng.Intn(ringMax-ringMin+1)
		members := make([]chain.PartyID, size)
		for i := range members {
			members[i] = chain.PartyID(fmt.Sprintf("r%d-p%d", ring, i))
		}
		respend := *conflicts > 0 && rng.Float64() < *conflicts && lastRingParty != ""
		for i, p := range members {
			tr := core.ProposedTransfer{
				To:     members[(i+1)%size],
				Chain:  chainNames[rng.Intn(len(chainNames))],
				Asset:  chain.AssetID(fmt.Sprintf("asset-r%d-%d", ring, i)),
				Amount: uint64(1 + rng.Intn(1000)),
			}
			party := p
			if respend && i == 0 {
				// Deliberate double-spend attempt: the earlier ring's party
				// offers the same asset again into this ring. The engine
				// must serialize or reject it, never double-commit.
				party = lastRingParty
				tr.Chain, tr.Asset, tr.Amount = lastRingAsset.Chain, lastRingAsset.Asset, lastRingAsset.Amount
			}
			if _, err := eng.Submit(core.Offer{Party: party, Give: []core.ProposedTransfer{tr}}); err != nil {
				rejected++
				continue
			}
			submitted++
			if i == 0 && !respend {
				lastRingParty, lastRingAsset = party, tr
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := eng.Stop(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	// A recovered engine is held to ledger integrity, not strict
	// conservation: a hard kill mid-settlement can orphan an escrowed
	// leg by design (see internal/durable).
	audit, auditName := eng.VerifyConservation, "conservation"
	if eng.Recovered() {
		audit, auditName = eng.VerifyLedgerIntegrity, "ledger integrity"
	}
	if err := audit(); err != nil {
		log.Fatalf("CONSERVATION VIOLATED: %v", err)
	}

	rep := eng.Report()
	if *jsonOut {
		fmt.Println(rep.JSON())
		return
	}
	fmt.Printf("load: %d offers submitted (%d refused at intake), %s verified\n\n",
		submitted, rejected, auditName)
	fmt.Println(rep)
	printDispatch(eng)
	if rep.SwapsFailed > 0 {
		os.Exit(1)
	}
}
