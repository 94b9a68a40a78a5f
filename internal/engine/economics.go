package engine

import (
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
)

// swapEconomics prices one finished run:
//
//   - Capital lock: each escrow span (publish tick → resolve-or-horizon
//     tick, from conc) charges the escrowing party — the arc's Head, who
//     deployed the contract — amount × duration token-ticks. Locks split
//     conforming vs deviant by the injected-behavior map; the conforming
//     side's lock inside a deviant-carrying swap is the swap's griefing
//     cost.
//   - Net transfers: a triggered arc's value moved Head → Tail
//     (triggered means claimable — a lazily unclaimed bearer right is
//     still the tail's, matching the outcome classes). A conforming
//     cohort's negative net is a Theorem 4.9 violation in value terms; a
//     deviant cohort's positive net is what a briber could promise.
//
// Everything is tick-domain, so the result is replay-identical and safe
// to pin in digests. escrowLock is one vertex's lock, which settle also
// records per order. Swaps are small, so each vertex scans the arcs
// rather than the run building a map.
func swapEconomics(spec *core.Spec, res *conc.Result, deviants map[digraph.Vertex]string) metrics.SwapEconomics {
	se := metrics.SwapEconomics{Deviant: len(deviants) > 0}
	for v := 0; v < spec.D.NumVertices(); v++ {
		vx := digraph.Vertex(v)
		lock, net := escrowLock(spec, res, vx), int64(0)
		for id, fired := range res.Triggered {
			if !fired {
				continue
			}
			switch arc := spec.D.Arc(id); vx {
			case arc.Head:
				net -= int64(spec.Assets[id].Amount)
			case arc.Tail:
				net += int64(spec.Assets[id].Amount)
			}
		}
		if _, dev := deviants[vx]; dev {
			se.DeviantLock += lock
			if net > 0 {
				se.CoalitionGain += uint64(net)
			}
		} else {
			se.ConformingLock += lock
			if net < 0 {
				se.ConformingLoss += uint64(-net)
			}
		}
	}
	return se
}

// escrowLock is the capital v's escrows locked in one run: amount ×
// duration token-ticks over the arcs v deployed.
func escrowLock(spec *core.Spec, res *conc.Result, v digraph.Vertex) uint64 {
	var lock uint64
	for _, span := range res.Escrows {
		if spec.D.Arc(span.ArcID).Head == v {
			lock += spec.Assets[span.ArcID].Amount * uint64(span.To-span.From)
		}
	}
	return lock
}
