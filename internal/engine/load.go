package engine

import (
	"fmt"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
)

// loadChains is the shared chain set generated rings are spread over.
var loadChains = []string{"btc", "eth", "sol", "ada"}

// LoadOffer builds offer i of generated barter ring `ring` (size parties,
// identity group `group`): the one offer shape every load harness — the
// open-loop generator in loadgen, the benchmark's closed-loop book —
// submits, so their measurements describe the same workload.
func LoadOffer(ring, i, size, group int) core.Offer {
	return LoadOfferOn(ring, i, size, group, loadChains[(ring+i)%len(loadChains)])
}

// LoadOfferOn is LoadOffer with an explicit chain: the sharded load
// generator picks chains from per-shard pools (so ring placement is a
// controlled variable), everything else about the workload stays
// byte-identical to the classic shape.
func LoadOfferOn(ring, i, size, group int, chainName string) core.Offer {
	return core.Offer{
		Party: chain.PartyID(fmt.Sprintf("r%d-p%d", group, i)),
		Give: []core.ProposedTransfer{{
			To:     chain.PartyID(fmt.Sprintf("r%d-p%d", group, (i+1)%size)),
			Chain:  chainName,
			Asset:  chain.AssetID(fmt.Sprintf("asset-%d-%d", ring, i)),
			Amount: uint64(1 + ring%89),
		}},
	}
}

// FloodPartyPrefix marks offers generated for a flooding coalition: the
// flooder identity pool's party names start with it, so intake fairness
// audits — and the scenario digest's shed split — can tell coalition
// traffic from organic load by name alone.
const FloodPartyPrefix = "flood"

// FloodOffer builds offer i of flooding ring `ring`: the LoadOffer shape
// (classic chain set) re-identified onto a small reused flooder pool
// ("flood<G>-p<I>"), so a handful of identities can hold arbitrarily many
// pending offers at once — the saturation pattern per-party fair shedding
// exists to contain.
func FloodOffer(ring, i, size, group int) core.Offer {
	o := LoadOffer(ring, i, size, group)
	o.Party = chain.PartyID(fmt.Sprintf("%s%d-p%d", FloodPartyPrefix, group, i))
	o.Give[0].To = chain.PartyID(fmt.Sprintf("%s%d-p%d", FloodPartyPrefix, group, (i+1)%size))
	return o
}
