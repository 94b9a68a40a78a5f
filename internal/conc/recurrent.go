package conc

import (
	"fmt"
	"io"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Recurrent swaps (Section 5): "the swap protocol can be made recurrent by
// having the leaders distribute the next round's hashlocks in Phase Two of
// the previous round." Each round is a full protocol execution; with
// piggybacking, round r+1 can start the moment round r settles, instead of
// paying an extra clearing round-trip (modeled as 2Δ: publish the new
// locks, parties confirm) between rounds.

// RoundStats reports one round of a recurrent swap.
type RoundStats struct {
	Start   vtime.Ticks
	Settled vtime.Ticks
	AllDeal bool
}

// RecurrentResult reports a multi-round run.
type RecurrentResult struct {
	Rounds     []RoundStats
	TotalTicks vtime.Duration
	Piggyback  bool
}

// RunRecurrent executes `rounds` back-to-back swaps over the same digraph
// and parties, with fresh secrets (and fresh per-round assets) each round.
// When piggyback is true, next-round hashlocks ride in the previous
// round's Phase Two, so rounds chain with no setup gap; otherwise each
// round pays a 2Δ clearing gap first.
func RunRecurrent(d *digraph.Digraph, rounds int, piggyback bool, rnd io.Reader) (*RecurrentResult, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds %d", core.ErrSpecShape, rounds)
	}
	res := &RecurrentResult{Piggyback: piggyback}
	var clock vtime.Ticks
	for r := 0; r < rounds; r++ {
		gap := vtime.Duration(0)
		if !piggyback || r == 0 {
			// Initial setup (and per-round re-clearing without
			// piggybacking) costs one publish-and-confirm round trip.
			gap = 2 * core.DefaultDelta
		}
		start := clock.Add(gap + vtime.Duration(core.DefaultDelta))
		// Per-round assets need distinct IDs across rounds.
		assets := make([]core.ArcAsset, d.NumArcs())
		for id := range assets {
			assets[id] = core.ArcAsset{
				Chain:  fmt.Sprintf("chain-a%d-r%d", id, r),
				Asset:  chain.AssetID(fmt.Sprintf("asset-a%d-r%d", id, r)),
				Amount: 1,
			}
		}
		setup, err := core.NewSetup(d, core.Config{Start: start, Rand: rnd, Assets: assets})
		if err != nil {
			return nil, fmt.Errorf("conc: recurrent round %d: %w", r, err)
		}
		out, err := NewRunner(setup).Run()
		if err != nil {
			return nil, fmt.Errorf("conc: recurrent round %d: %w", r, err)
		}
		settled := out.Timing.AllDone
		if settled == 0 {
			settled = setup.Spec.Horizon()
		}
		res.Rounds = append(res.Rounds, RoundStats{
			Start:   start,
			Settled: settled,
			AllDeal: out.Report.AllDeal(),
		})
		clock = settled
	}
	res.TotalTicks = clock.Sub(0)
	return res, nil
}
