package core

import (
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
)

// BroadcastMsg is the payload leaders publish on the shared broadcast
// chain under the Section 4.5 optimization: their degenerate hashkey, so
// followers can extend it with a verifiable signature chain. Tag carries
// the publishing swap's contract namespace so concurrent swaps sharing
// the broadcast chain can ignore each other's secrets.
type BroadcastMsg struct {
	Tag       string
	LockIndex int
	Key       hashkey.Hashkey
}

// Result reports a finished conc.Runner run.
type Result struct {
	Spec *Spec
	// Triggered reports, per arc ID, whether the transfer happened: the
	// contract was claimed, or is fully unlocked and therefore claimable
	// (a bearer right — see DESIGN.md).
	Triggered []bool
	// Report classifies every party's payoff.
	Report outcome.Report
	// Conforming lists the vertexes that ran the default conforming
	// behavior (never overridden with SetBehavior).
	Conforming []digraph.Vertex
	Log        *trace.Log
	Counters   metrics.Counters
	Timing     metrics.Timing
	// StorageBytes is the total stored across all chains (Theorem 4.10).
	StorageBytes int
	// Registry exposes final chain state for invariant checks.
	Registry *chain.Registry
}
