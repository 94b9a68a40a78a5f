// Package baseline implements the non-atomic ways people exchanged assets
// before (and without) the paper's protocol, as comparison points for the
// experiments:
//
//   - Sequential: the arcs are settled one after another as plain,
//     unconditional transfers. Nothing protects a party that has paid
//     from a successor who stops paying — the folk "just wire it" scheme.
//
// The uniform-timeout HTLC protocol (the other baseline the paper's
// Section 1 dismantles) lives in core as KindUniformTimeout, since it
// shares the contract machinery.
package baseline

import (
	"fmt"
	"sort"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// SequentialResult reports a sequential-settlement run.
type SequentialResult struct {
	Triggered map[int]bool
	Report    *outcome.Report
	Log       *trace.Log
	// Duration is the ticks from first to last transfer attempt.
	Duration vtime.Duration
}

// Sequential settles the swap digraph's arcs in ID order, one plain
// transfer per Δ. Parties in defectors receive but never send: they stop
// the chain of payments cold. The function reports who ended where — on
// any cycle a single defector leaves its predecessor Underwater, which is
// exactly why the paper's protocol exists.
func Sequential(d *digraph.Digraph, assets []core.ArcAsset, parties []chain.PartyID,
	delta vtime.Duration, defectors map[digraph.Vertex]bool) (*SequentialResult, error) {
	if len(assets) != d.NumArcs() || len(parties) != d.NumVertices() {
		return nil, fmt.Errorf("baseline: %d assets for %d arcs, %d parties for %d vertexes",
			len(assets), d.NumArcs(), len(parties), d.NumVertices())
	}
	sc := sched.NewVirtual(1)
	defer sc.Close() // the error path; RunUntil stops it on the other
	// Every transfer is queued from this goroutine before any may run.
	release := sc.Hold()
	reg := chain.NewRegistry(sc)
	log := &trace.Log{}
	for id := 0; id < d.NumArcs(); id++ {
		aa := assets[id]
		if err := reg.Chain(aa.Chain).RegisterAsset(chain.Asset{ID: aa.Asset, Amount: aa.Amount},
			parties[d.Arc(id).Head]); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
	}
	triggered := make(map[int]bool, d.NumArcs())
	order := make([]int, d.NumArcs())
	for i := range order {
		order[i] = i
	}
	sort.Ints(order)
	for i, id := range order {
		i, id := i, id
		arc := d.Arc(id)
		sc.At(vtime.Ticks(vtime.Scale(i+1, delta)), func() {
			if defectors[arc.Head] {
				log.Append(trace.Event{
					At: sc.Now(), Kind: trace.KindDeviation,
					Party: string(parties[arc.Head]), Arc: id, Lock: -1,
					Detail: "defects: keeps the asset",
				})
				return
			}
			// An honest payer only pays if everything owed to it earlier
			// in the sequence actually arrived.
			for _, prev := range order[:i] {
				if d.Arc(prev).Tail == arc.Head && !triggered[prev] {
					log.Append(trace.Event{
						At: sc.Now(), Kind: trace.KindAbandoned,
						Party: string(parties[arc.Head]), Arc: id, Lock: -1,
						Detail: "upstream payment missing; not paying",
					})
					return
				}
			}
			aa := assets[id]
			if err := reg.Chain(aa.Chain).Transfer(parties[arc.Head], aa.Asset, parties[arc.Tail]); err != nil {
				log.Append(trace.Event{
					At: sc.Now(), Kind: trace.KindUnlockFailed,
					Party: string(parties[arc.Head]), Arc: id, Lock: -1, Detail: err.Error(),
				})
				return
			}
			triggered[id] = true
			log.Append(trace.Event{
				At: sc.Now(), Kind: trace.KindClaimed,
				Party: string(parties[arc.Tail]), Arc: id, Lock: -1, Detail: "plain transfer",
			})
		})
	}
	// The last attempt is at tick n·Δ and nothing cascades past it.
	end := vtime.Ticks(vtime.Scale(len(order), delta))
	release()
	sc.RunUntil(end)
	return &SequentialResult{
		Triggered: triggered,
		Report:    outcome.NewReport(d, triggered),
		Log:       log,
		Duration:  end.Sub(0),
	}, nil
}

// DefaultAssets builds the per-arc assets Sequential needs, matching
// core.NewSetup's defaults.
func DefaultAssets(d *digraph.Digraph) []core.ArcAsset {
	assets := make([]core.ArcAsset, d.NumArcs())
	for id := range assets {
		assets[id] = core.ArcAsset{
			Chain:  fmt.Sprintf("chain-a%d", id),
			Asset:  chain.AssetID(fmt.Sprintf("asset-a%d", id)),
			Amount: 1,
		}
	}
	return assets
}

// PartyNames returns the vertex display names as party IDs.
func PartyNames(d *digraph.Digraph) []chain.PartyID {
	parties := make([]chain.PartyID, d.NumVertices())
	for v := range parties {
		parties[v] = chain.PartyID(d.Name(digraph.Vertex(v)))
	}
	return parties
}
