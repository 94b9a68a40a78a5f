package engine

import (
	"strconv"

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
	return LoadOfferOn(ring, i, size, group, LoadChain(ring, i))
}

// LoadOfferOn is LoadOffer with an explicit chain: the sharded load
// generator picks chains from per-shard pools (so ring placement is a
// controlled variable), everything else about the workload stays
// byte-identical to the classic shape.
func LoadOfferOn(ring, i, size, group int, chainName string) core.Offer {
	return LoadOfferInto(make([]core.ProposedTransfer, 1), ring, LoadAsset(ring, i),
		LoadParty(group, i), LoadParty(group, (i+1)%size), chainName)
}

// LoadOfferInto is the shape LoadOffer, LoadOfferOn and FloodOffer share,
// built on storage the caller owns: party gives asset, ring `ring`'s
// LoadAsset for its position, to `to` on chainName, and the offer's
// one-element Give is give[:1], filled here. A generator that formats each
// party name once, cuts every Give from one slab and every asset ID from
// one string builds the same offers without allocating any of them.
func LoadOfferInto(give []core.ProposedTransfer, ring int, asset chain.AssetID, party, to chain.PartyID, chainName string) core.Offer {
	give[0] = core.ProposedTransfer{
		To:     to,
		Chain:  chainName,
		Asset:  asset,
		Amount: uint64(1 + ring%89),
	}
	return core.Offer{Party: party, Give: give[:1:1]}
}

// LoadChain is the classic chain offer i of ring `ring` gives on.
func LoadChain(ring, i int) string { return loadChains[(ring+i)%len(loadChains)] }

// LoadParty names position i of load identity group `group`: "r<G>-p<I>".
func LoadParty(group, i int) chain.PartyID { return partyName("r", group, i) }

// FloodParty names position i of flooder group `group`:
// "flood<G>-p<I>".
func FloodParty(group, i int) chain.PartyID { return partyName(FloodPartyPrefix, group, i) }

func partyName(prefix string, group, i int) chain.PartyID {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	b = strconv.AppendInt(b, int64(group), 10)
	b = append(b, "-p"...)
	b = strconv.AppendInt(b, int64(i), 10)
	return chain.PartyID(b)
}

// LoadAsset is the asset offer i of ring `ring` gives: "asset-<R>-<I>".
func LoadAsset(ring, i int) chain.AssetID {
	var buf [48]byte
	return chain.AssetID(AppendLoadAsset(buf[:0], ring, i))
}

// AppendLoadAsset appends LoadAsset(ring, i) to b.
func AppendLoadAsset(b []byte, ring, i int) []byte {
	b = append(b, "asset-"...)
	b = strconv.AppendInt(b, int64(ring), 10)
	b = append(b, '-')
	return strconv.AppendInt(b, int64(i), 10)
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
	return LoadOfferInto(make([]core.ProposedTransfer, 1), ring, LoadAsset(ring, i),
		FloodParty(group, i), FloodParty(group, (i+1)%size), LoadChain(ring, i))
}
