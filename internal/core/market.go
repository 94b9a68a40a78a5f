package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Market clearing (Section 4.2). Parties send offers — the transfers they
// are willing to make — to a clearing service, which combines them into a
// swap digraph, chooses leaders forming a feedback vertex set, and
// publishes the swap plan (the Spec). The service is not trusted: every
// party can check the published plan against its own offer with
// VerifyPlan before participating.

// ProposedTransfer is one asset a party offers to hand over.
type ProposedTransfer struct {
	To     chain.PartyID
	Chain  string
	Asset  chain.AssetID
	Amount uint64
}

// Offer is a party's submission to the clearing service.
type Offer struct {
	Party chain.PartyID
	Give  []ProposedTransfer
}

// Clearing errors.
var (
	ErrEmptyOffer     = errors.New("core: offer proposes no transfers")
	ErrSelfTransfer   = errors.New("core: offer transfers to its own party")
	ErrUnknownParty   = errors.New("core: transfer to a party that submitted no offer")
	ErrDuplicateOffer = errors.New("core: party submitted more than one offer")
	ErrPlanMismatch   = errors.New("core: published plan does not match the offer")
)

// Clear combines offers into a validated swap setup. Parties are assigned
// vertexes in sorted-ID order; arcs follow the offers in the same order,
// so clearing is deterministic. Leaders, Δ, start time, and randomness
// come from cfg (cfg.Parties and cfg.Assets are derived from the offers
// and must be unset).
func Clear(offers []Offer, cfg Config) (*Setup, error) {
	if len(offers) < 2 {
		return nil, fmt.Errorf("%w: need at least two offers, got %d", ErrSpecShape, len(offers))
	}
	if cfg.Parties != nil || cfg.Assets != nil {
		return nil, fmt.Errorf("%w: Clear derives parties and assets from offers", ErrSpecShape)
	}
	// The parties and arc assets go straight into the plan the swap binds
	// to; the offers are found by party with a scan, which for the handful
	// of parties a swap has beats building a map.
	p := new(plan)
	ids := cut(p.parties[:], len(offers))
	arcs := 0
	for i, o := range offers {
		if len(o.Give) == 0 {
			return nil, fmt.Errorf("%w: party %s", ErrEmptyOffer, o.Party)
		}
		ids[i] = o.Party
		arcs += len(o.Give)
	}
	slices.Sort(ids)
	for v := 1; v < len(ids); v++ {
		if ids[v] == ids[v-1] {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateOffer, ids[v])
		}
	}

	var arcBuf [planArcs]digraph.Arc
	pairs := arcBuf[:0]
	if arcs > len(arcBuf) {
		pairs = make([]digraph.Arc, 0, arcs)
	}
	assets := cut(p.assets[:], arcs)
	for v, id := range ids {
		i := slices.IndexFunc(offers, func(o Offer) bool { return o.Party == id })
		for _, tr := range offers[i].Give {
			if tr.To == id {
				return nil, fmt.Errorf("%w: %s -> %s", ErrSelfTransfer, id, tr.To)
			}
			to, ok := slices.BinarySearch(ids, tr.To)
			if !ok {
				return nil, fmt.Errorf("%w: %s -> %s", ErrUnknownParty, id, tr.To)
			}
			assets[len(pairs)] = ArcAsset{Chain: tr.Chain, Asset: tr.Asset, Amount: tr.Amount}
			pairs = append(pairs, digraph.Arc{Head: digraph.Vertex(v), Tail: digraph.Vertex(to)})
		}
	}
	shape, err := clearedShape(ids, pairs, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Parties = ids
	cfg.Assets = assets
	return p.bind(shape, cfg)
}

// clearedShape is the shape Clear binds: the cache's when cfg lets the
// shape decide everything a cache entry holds, else compiled afresh over
// a digraph named after the parties.
func clearedShape(ids []chain.PartyID, pairs []digraph.Arc, cfg Config) (*Shape, error) {
	if cfg.Shapes != nil && cfg.Leaders == nil && cfg.DiamBound == 0 && !cfg.AllowUnsafe {
		return cfg.Shapes.shape(len(ids), pairs)
	}
	names := make([]string, len(ids))
	for v, id := range ids {
		names[v] = string(id)
	}
	d, err := digraph.Build(names, pairs)
	if err != nil {
		return nil, fmt.Errorf("core: clearing: %w", err)
	}
	return compileShape(d, cfg.Leaders, cfg.DiamBound)
}

// VerifyPlan checks a published plan against one party's own offer: every
// transfer the party offered appears as an arc with the right recipient
// and asset, and the plan assigns the party no transfers it did not offer.
// This is the consistency check that makes the clearing service untrusted.
func VerifyPlan(spec *Spec, offer Offer) error {
	v, ok := spec.VertexOf(offer.Party)
	if !ok {
		return fmt.Errorf("%w: party %s not in plan", ErrPlanMismatch, offer.Party)
	}
	leaving := spec.D.Out(v)
	if len(leaving) != len(offer.Give) {
		return fmt.Errorf("%w: plan assigns %d transfers, offer has %d",
			ErrPlanMismatch, len(leaving), len(offer.Give))
	}
	matched := make([]bool, len(offer.Give))
	for _, arcID := range leaving {
		arc := spec.D.Arc(arcID)
		aa := spec.Assets[arcID]
		found := false
		for i, tr := range offer.Give {
			if matched[i] {
				continue
			}
			if spec.PartyOf(arc.Tail) == tr.To && aa.Chain == tr.Chain &&
				aa.Asset == tr.Asset && aa.Amount == tr.Amount {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: plan arc %d (to %s, asset %s) not in offer",
				ErrPlanMismatch, arcID, spec.PartyOf(arc.Tail), aa.Asset)
		}
	}
	return nil
}
