package shard

import (
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// Recover rebuilds a ShardedEngine from a durable store. The sharded
// deployment logs into ONE write-ahead log — every inner engine appends
// to the same store, and events carry shard-independent identities
// (router-assigned order IDs, canonical swap tags) — so recovery folds
// the log exactly once with durable's standard machinery and then
// re-partitions the result: identities into the shared keyring, assets
// re-minted once into the shared registry, orders routed to their home
// shards by the same map intake uses. A shard crash mid-escalation
// resolves like any other in-flight state: an order the sweep had moved
// to the coordinator folds back to its booked offer, recovers into its
// home shard, and — its submit tick being long past the cutoff —
// re-escalates on the first sweep. A swap the coordinator had PREPARED
// (EvPrepared logged, reservations held on every involved shard) but not
// committed folds to pending orders: the reservations died with the
// process, so the prepare is refunded and the orders resume. See
// DESIGN.md §11.
//
// The returned engine has not been Started; the caller Starts it exactly
// like a fresh one.
func Recover(cfg Config, opts durable.RecoverOptions) (*ShardedEngine, *durable.Recovery, error) {
	var s *ShardedEngine
	rec, err := durable.Resume(opts, cfg.Engine.Delta, func(st engine.Store, rs engine.RecoveredState) (*engine.Engine, error) {
		cfg.Engine.Store = st
		var err error
		if s, err = NewRecovered(cfg, rs); err != nil {
			return nil, err
		}
		// Recovery counters ride on shard 0's aggregate; Merge copies them
		// into the merged report (exactly one engine carries them).
		return s.shards[0], nil
	})
	if err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}
