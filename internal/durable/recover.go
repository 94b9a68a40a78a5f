package durable

import (
	"errors"
	"fmt"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// ErrNoState marks a Recover against a directory with nothing in it —
// the "fresh start, not a restart" case callers branch on (swapd opens
// a new store and a new engine instead).
var ErrNoState = errors.New("durable: no recoverable state")

// RecoverOptions parameterizes Recover.
type RecoverOptions struct {
	// Dir is the store directory to recover from.
	Dir string
	// CutTick, when positive, replays only events stamped at or before
	// it — the crash-scenario mode, where the kill tick is known and the
	// store may hold appends that raced past it. Requires a
	// snapshot-free log (see Options.SnapshotEvery). 0 replays
	// everything, resuming at the log's own max tick.
	CutTick vtime.Ticks
	// Attach keeps the store attached to the recovered engine: the
	// resolved state is written as a fresh snapshot (making resolution
	// idempotent across repeated crashes), the log is truncated, and the
	// engine's Config.Store is pointed at the store, which then keeps
	// logging. The store stays open; closing it is the caller's job.
	// Without Attach the store is closed and the recovered engine runs
	// in-memory — the deterministic-replay shape.
	Attach bool
	// SnapshotEvery configures the attached store's auto-snapshot cadence
	// (ignored without Attach).
	SnapshotEvery int
}

// Recovery reports what a Recover did.
type Recovery struct {
	// Events is how many WAL events were folded.
	Events int
	// Resumed and Refunded split the orders in flight at the crash.
	Resumed  int
	Refunded int
	// Reverts is the pre-crash commitment-model reorg revert count
	// folded from the log (0 on Instant runs).
	Reverts int
	// Tick is the virtual tick the engine resumed at.
	Tick vtime.Ticks
	// WallMs is the wall-clock cost of the whole recovery.
	WallMs float64
	// Store is the attached store (nil without RecoverOptions.Attach).
	Store *Store
}

// Recover rebuilds an engine from a durable store: read snapshot + tail,
// fold, resolve every in-flight swap (resume or refund — see
// State.Resolve for the rule), and hand the result to
// engine.NewRecovered. The returned engine has not been Started; the
// caller Starts it exactly like a fresh one, and the recovered pending
// book (original pending orders plus resumed ones) re-clears on the
// first rounds.
func Recover(ecfg engine.Config, opts RecoverOptions) (*engine.Engine, *Recovery, error) {
	var e *engine.Engine
	rec, err := Resume(opts, ecfg.Delta, func(st engine.Store, rs engine.RecoveredState) (*engine.Engine, error) {
		ecfg.Store = st
		var err error
		e, err = engine.NewRecovered(ecfg, rs)
		return e, err
	})
	if err != nil {
		return nil, nil, err
	}
	return e, rec, nil
}

// Resume is the store side of recovery, written once for every engine
// shape: open the directory, fold it up to the cut, resolve what was in
// flight against the timelock budget delta buys, and attach the store or
// close it. build turns the result into an engine — it receives the store
// the new engine must keep logging into (nil unless opts.Attach) and the
// resolved state — and returns the engine whose metrics carry the recovery
// counters. A build failure closes an attached store.
func Resume(opts RecoverOptions, delta vtime.Duration,
	build func(engine.Store, engine.RecoveredState) (*engine.Engine, error)) (*Recovery, error) {
	begin := time.Now()
	st, err := Open(Options{Dir: opts.Dir, SnapshotEvery: opts.SnapshotEvery})
	if err != nil {
		return nil, err
	}
	if !st.HasData() {
		st.Close()
		return nil, fmt.Errorf("%w in %s", ErrNoState, opts.Dir)
	}
	resolved, err := st.ResolvedState(opts.CutTick)
	if err != nil {
		st.Close()
		return nil, err
	}

	rec := &Recovery{
		Events:  resolved.Events,
		Reverts: resolved.Reverts,
		Tick:    resolved.MaxTick,
	}
	if opts.CutTick > rec.Tick {
		rec.Tick = opts.CutTick
	}
	if delta <= 0 {
		delta = core.DefaultDelta
	}
	var recState engine.RecoveredState
	recState, rec.Resumed, rec.Refunded = resolved.Resolve(rec.Tick, delta)

	// A nil *Store must reach the engine as a nil engine.Store.
	var logTo engine.Store
	if opts.Attach {
		if err := st.AttachResolved(resolved); err != nil {
			st.Close()
			return nil, err
		}
		rec.Store, logTo = st, st
	} else if err := st.Close(); err != nil {
		return nil, err
	}

	e, err := build(logTo, recState)
	if err != nil {
		if opts.Attach {
			st.Close()
		}
		return nil, err
	}
	rec.WallMs = float64(time.Since(begin)) / float64(time.Millisecond)
	e.SetRecoveryStats(metrics.RecoveryStats{
		Replayed: rec.Events,
		Resumed:  rec.Resumed,
		Refunded: rec.Refunded,
		WallMs:   rec.WallMs,
	})
	return rec, nil
}
