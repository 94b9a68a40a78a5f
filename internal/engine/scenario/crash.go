package scenario

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// runCrash is the CrashTick path: run the scenario's engine against a
// durable WAL, kill it at the crash tick, recover a second engine from
// the log, and let that one finish the run. The digest is built from
// the second life's books, so it witnesses the whole arc — orders
// restored, swaps resumed or refunded, recovered pending re-cleared —
// and must still replay byte-identically from the seed.
//
// Determinism hinges on the cut semantics: the first engine's in-flight
// swaps keep playing out after Kill (virtual time keeps running until
// Stop), and the store stays open through that drain, so the log holds
// exactly every event stamped at or before the cut plus a suffix
// stamped after it. Recover's CutTick filter drops the suffix, making
// the recovered state a pure function of the schedule.
func runCrash(sc Scenario, cfg engine.Config, process loadgen.Process) (*Result, error) {
	dir, err := os.MkdirTemp("", "swap-crash-")
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	defer os.RemoveAll(dir)
	// Automatic snapshots stay off: a cut-tick replay needs the raw
	// event stream (see durable.Options.SnapshotEvery).
	store, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	acfg := cfg
	acfg.Store = store
	a := engine.New(acfg)
	if err := a.Start(); err != nil {
		return nil, err
	}
	// The kill is itself a scheduled event, so the crash instant is part
	// of the replayed schedule. The channel marks it fired: the arrival
	// schedule may end (and loadgen.Run return) before the crash tick,
	// and Stop must not tear the scheduler down under a pending kill.
	var cut vtime.Ticks
	killed := make(chan struct{})
	a.Scheduler().At(sc.CrashTick, func() {
		cut = a.Kill()
		close(killed)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	stats, err := loadgen.Run(ctx, a, sc.loadConfig(process))
	if err != nil {
		a.Stop(ctx)
		return nil, fmt.Errorf("scenario %q: load: %w", sc.Name, err)
	}
	select {
	case <-killed:
	case <-ctx.Done():
		a.Stop(ctx)
		return nil, fmt.Errorf("scenario %q: crash tick %d never fired", sc.Name, sc.CrashTick)
	}
	if err := a.Stop(ctx); err != nil {
		return nil, fmt.Errorf("scenario %q: post-kill drain: %w", sc.Name, err)
	}
	aRounds := a.ClearRounds()
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("scenario %q: store: %w", sc.Name, err)
	}

	// Second life: detached recovery (the store has served its purpose;
	// the replay cares about state, not continued logging) under the
	// same engine config, then a normal start-and-drain to finish every
	// resumed or still-pending order.
	b, rec, err := durable.Recover(cfg, durable.RecoverOptions{Dir: dir, CutTick: cut})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: recover: %w", sc.Name, err)
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	if err := b.Stop(ctx); err != nil {
		return nil, fmt.Errorf("scenario %q: recovered drain: %w", sc.Name, err)
	}

	orders := b.Orders()
	res := &Result{
		Report:     b.Report(),
		Load:       stats,
		Violations: checkSafety(orders),
		Dispatch:   b.Scheduler().Stats(),
		Signing:    b.Keyring().SignStats(),
		Recovery:   rec,
	}

	// The crash itself can orphan contract escrow on the first life's
	// chains (those ledgers died with the process), so the recovered
	// engine is audited for ledger integrity — every asset accounted,
	// conforming balances whole — rather than full no-stranded-escrow
	// conservation.
	conservation := "ok"
	if err := b.VerifyLedgerIntegrity(); err != nil {
		conservation = err.Error()
		res.Violations = append(res.Violations, Violation{Detail: "conservation: " + err.Error()})
	}

	rounds := aRounds + b.ClearRounds()
	res.Violations = append(res.Violations, sc.budgetViolations(rounds, orders, res.Report)...)
	res.Violations = append(res.Violations, sc.fairShedViolations(stats)...)
	res.Digest = buildDigest(sc, stats, res.Report, orders, res.Violations, conservation, rounds, &CrashDigest{
		Tick:     int64(cut),
		Replayed: rec.Events,
		Resumed:  rec.Resumed,
		Refunded: rec.Refunded,
		Reverts:  rec.Reverts,
	})
	return res, nil
}
