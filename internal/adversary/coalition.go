package adversary

import (
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Punishment builds the Lemma 4.11 griefing coalition: each member runs
// the conforming protocol right up to the boundary the lemma permits —
// it accepts entering contracts but never deploys its own leaving arcs,
// never unlocks, never redeems, never broadcasts. Conforming
// counterparties escrowed against the coalition wait out their full
// timelocks and refund; the coalition itself escrows nothing, so its
// only cost is forgone trade while the victims' capital stays locked —
// pure griefing, the lemma's worst case. Claims and refunds are left
// intact (a member still collects any bearer rights that fall to it and
// refunds what it did escrow before joining, keeping the deviation
// individually rational).
//
// The returned behaviors are stateless per member and deterministic:
// the same member set always produces the same deviation.
func Punishment(members []digraph.Vertex) map[digraph.Vertex]core.Behavior {
	f := Filter{
		DropPublish:   func(int) bool { return true },
		DropUnlock:    func(int, int) bool { return true },
		DropRedeem:    func(int) bool { return true },
		DropBroadcast: func(int) bool { return true },
	}
	out := make(map[digraph.Vertex]core.Behavior, len(members))
	for _, v := range members {
		out[v] = Filtered(Conforming(), f)
	}
	return out
}
