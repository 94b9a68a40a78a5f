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

// Recover rebuilds an engine from a durable store, onto cfg.Shards shards
// whatever count wrote it: open the directory, fold it up to the cut,
// resolve every in-flight swap against the timelock budget cfg.Delta buys
// (resume or refund — see State.Resolve for the rule), attach the store or
// close it, and hand the result to engine.NewRecovered. Every unit of an
// engine logs into its one store, with shard-independent identities
// (global order IDs, canonical swap tags), so the log folds once and
// re-partitions onto any shard count. An order a coordinator had escalated
// folds back to its booked offer and recovers onto its home shard, and a
// swap a coordinator had PREPARED (EvPrepared logged, reservations held on
// every involved shard) but not committed folds to pending orders: the
// reservations died with the process, so the prepare is refunded and the
// orders resume. See DESIGN.md §11.
//
// The returned engine has not been Started; the caller Starts it exactly
// like a fresh one, and the recovered pending book (original pending
// orders plus resumed ones) re-clears on the first rounds. A build failure
// closes an attached store.
func Recover(cfg engine.Config, opts RecoverOptions) (*engine.Engine, *Recovery, error) {
	begin := time.Now()
	st, err := Open(Options{Dir: opts.Dir, SnapshotEvery: opts.SnapshotEvery})
	if err != nil {
		return nil, nil, err
	}
	if !st.HasData() {
		st.Close()
		return nil, nil, fmt.Errorf("%w in %s", ErrNoState, opts.Dir)
	}
	var resolved *State
	if opts.CutTick <= 0 && !opts.Attach {
		// Nothing reads a closed store's fold again, so Resolve may
		// write it in place of a clone.
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
		resolved = st.closedState()
	} else if resolved, err = st.ResolvedState(opts.CutTick); err != nil {
		st.Close()
		return nil, nil, err
	}

	rec := &Recovery{
		Events:  resolved.Events,
		Reverts: resolved.Reverts,
		Tick:    resolved.MaxTick,
	}
	if opts.CutTick > rec.Tick {
		rec.Tick = opts.CutTick
	}
	delta := cfg.Delta
	if delta <= 0 {
		delta = core.DefaultDelta
	}
	var recState engine.RecoveredState
	recState, rec.Resumed, rec.Refunded = resolved.Resolve(rec.Tick, delta)

	// A nil *Store must reach the engine as a nil engine.Store.
	cfg.Store = nil
	if opts.Attach {
		if err := st.AttachResolved(resolved); err != nil {
			st.Close()
			return nil, nil, err
		}
		rec.Store, cfg.Store = st, st
	} else if opts.CutTick > 0 {
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
	}

	e, err := engine.NewRecovered(cfg, recState)
	if err != nil {
		if opts.Attach {
			st.Close()
		}
		return nil, nil, err
	}
	rec.WallMs = float64(time.Since(begin)) / float64(time.Millisecond)
	e.SetRecoveryStats(metrics.RecoveryStats{
		Replayed: rec.Events,
		Resumed:  rec.Resumed,
		Refunded: rec.Refunded,
		WallMs:   rec.WallMs,
	})
	return e, rec, nil
}
