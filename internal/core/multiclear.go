package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Multi-swap clearing: the batch generalization of Clear for the clearing
// engine. One clearing round looks at every pending offer at once and
// carves the offer graph into disjoint swap digraphs, each of which clears
// independently (and can then execute concurrently with the others). An
// offer joins a swap only if all of its recipients are in the same
// strongly connected component — the Theorem 3.5 precondition — so offers
// whose counterparties have not shown up yet stay pending for a later
// round rather than poisoning the batch.

// Batch is one clearing round's result: disjoint groups of offers that
// each form a strongly connected swap digraph, plus the residual offers
// that cannot clear yet (their recipients are missing or not mutually
// reachable).
type Batch struct {
	// Groups are disjoint clearable offer sets, deterministic order
	// (sorted by the smallest party ID in the group).
	Groups [][]Offer
	// Residual holds offers that no group could absorb this round.
	Residual []Offer
}

// PartitionOffers splits a batch of offers into disjoint clearable groups
// and a residual. An offer clears only when every one of its proposed
// recipients sits in the same strongly connected component of the offer
// graph; removing unclearable offers can break connectivity for others,
// so the partition iterates to a fixpoint. Structural offer errors
// (duplicate party, empty offer, self-transfer) are reported instead of
// silently shunted to the residual.
func PartitionOffers(offers []Offer) (*Batch, error) {
	return new(Partitioner).Partition(offers)
}

// Partitioner is PartitionOffers with its working memory kept from one
// call to the next: a clearing engine partitions its book every round,
// and most rounds find a handful of offers that cannot clear yet. The
// zero value is ready to use; a Partitioner is not safe for concurrent
// use. Returned batches never alias the working memory.
type Partitioner struct {
	indexOf  map[chain.PartyID]int // party -> index into offers
	order    []int                 // offer indexes in party-ID order
	active   []bool                // by offer index
	vertexOf []digraph.Vertex      // by offer index, this iteration's graph
	pairs    []digraph.Arc
	scc      digraph.SCCScratch
	size     []int // by component: surviving offers
	groupOf  []int // by component: 1 + its index in the batch's Groups
}

// Partition is PartitionOffers on p's working memory.
func (p *Partitioner) Partition(offers []Offer) (*Batch, error) {
	if p.indexOf == nil {
		p.indexOf = make(map[chain.PartyID]int, len(offers))
	}
	clear(p.indexOf)
	for i, o := range offers {
		if len(o.Give) == 0 {
			return nil, fmt.Errorf("%w: party %s", ErrEmptyOffer, o.Party)
		}
		if _, dup := p.indexOf[o.Party]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateOffer, o.Party)
		}
		for _, tr := range o.Give {
			if tr.To == o.Party {
				return nil, fmt.Errorf("%w: %s -> %s", ErrSelfTransfer, o.Party, tr.To)
			}
		}
		p.indexOf[o.Party] = i
	}
	order := slices.Grow(p.order[:0], len(offers))
	active := slices.Grow(p.active[:0], len(offers))
	vertexOf := slices.Grow(p.vertexOf[:0], len(offers))[:len(offers)]
	for i := range offers {
		order = append(order, i)
		active = append(active, true)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(offers[a].Party, offers[b].Party) })
	p.order, p.active, p.vertexOf = order, active, vertexOf

	// Active set shrinks monotonically until every remaining offer is
	// fully internal to its component.
	for {
		n, pairs := 0, p.pairs[:0]
		for _, i := range order {
			if active[i] {
				vertexOf[i] = digraph.Vertex(n)
				n++
			}
		}
		for _, i := range order {
			if !active[i] {
				continue
			}
			for _, tr := range offers[i].Give {
				if j, ok := p.indexOf[tr.To]; ok && active[j] {
					pairs = append(pairs, digraph.Arc{Head: vertexOf[i], Tail: vertexOf[j]})
				}
			}
		}
		p.pairs = pairs
		comp, count := p.scc.Components(n, pairs)
		// Drop any active offer with a recipient outside its component
		// (including recipients that never submitted an offer).
		removed := false
		for _, i := range order {
			if !active[i] {
				continue
			}
			for _, tr := range offers[i].Give {
				if j, ok := p.indexOf[tr.To]; !ok || !active[j] || comp[vertexOf[j]] != comp[vertexOf[i]] {
					active[i] = false
					removed = true
					break
				}
			}
		}
		if removed {
			continue
		}

		// Fixpoint: group the survivors by component. Walking them in party
		// order leaves every group sorted by party and the groups sorted by
		// their smallest party; the residual comes out sorted the same way.
		size := append(p.size[:0], make([]int, count)...)
		groupOf := append(p.groupOf[:0], make([]int, count)...)
		p.size, p.groupOf = size, groupOf
		survivors := 0
		for _, i := range order {
			if active[i] {
				size[comp[vertexOf[i]]]++
				survivors++
			}
		}
		b := &Batch{}
		backing := make([]Offer, survivors)
		for _, i := range order {
			c := -1
			if active[i] {
				c = comp[vertexOf[i]]
			}
			if c < 0 || size[c] < 2 {
				// Inactive, or a singleton component at fixpoint: a party
				// whose only transfers point at itself-sized components
				// cannot form a swap.
				b.Residual = append(b.Residual, offers[i])
				continue
			}
			if groupOf[c] == 0 {
				b.Groups = append(b.Groups, backing[:0:size[c]])
				backing = backing[size[c]:]
				groupOf[c] = len(b.Groups)
			}
			g := &b.Groups[groupOf[c]-1]
			*g = append(*g, offers[i])
		}
		return b, nil
	}
}

// ClearBatch partitions offers and clears every group into its own Setup.
// Each group's config starts from base; every group gets a distinct tag —
// the group index appended to base.Tag ("batch" when unset) — so the
// resulting swaps can execute concurrently over shared chains without
// contract-ID collisions. Residual offers are returned for the next round.
func ClearBatch(offers []Offer, base Config) ([]*Setup, []Offer, error) {
	b, err := PartitionOffers(offers)
	if err != nil {
		return nil, nil, err
	}
	prefix := base.Tag
	if prefix == "" {
		prefix = "batch"
	}
	setups := make([]*Setup, 0, len(b.Groups))
	for i, g := range b.Groups {
		cfg := base
		cfg.Parties, cfg.Assets, cfg.Leaders = nil, nil, nil
		cfg.Tag = fmt.Sprintf("%s-%d", prefix, i)
		setup, err := Clear(g, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("core: clearing group %d: %w", i, err)
		}
		setups = append(setups, setup)
	}
	return setups, b.Residual, nil
}
