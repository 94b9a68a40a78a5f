package engine

import (
	"fmt"

	"github.com/go-atomicswap/atomicswap/internal/core"
)

// FNV-1a 64-bit constants (hash/fnv, inlined to keep Of allocation-free
// on the intake path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Map is the deterministic asset→shard partition: a chain's shard is
// FNV-1a(chain name) mod N. It is a pure function of the name and the
// shard count — every process (router, coordinator, recovery, a replay on
// another shard count) computes the same placement with no shared state, and remapping
// to a different shard count re-folds the same chains onto fewer or more
// engines without touching ledger contents.
type Map struct {
	n int
}

// NewMap builds the partition for n shards (floored at 1).
func NewMap(n int) Map {
	if n < 1 {
		n = 1
	}
	return Map{n: n}
}

// Shards reports the shard count.
func (m Map) Shards() int { return m.n }

// Of maps a chain name to its owning shard in [0, Shards).
func (m Map) Of(chainName string) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(chainName); i++ {
		h ^= uint64(chainName[i])
		h *= fnvPrime64
	}
	return int(h % uint64(m.n))
}

// OfOffer resolves an offer's home shard — the shard of its first give
// transfer's chain — and reports whether the offer is intake-cross: its
// own transfers span more than one shard, so no single shard unit can
// even reserve its legs and it routes straight to the coordinator. A
// single-transfer offer is never intake-cross; when its COUNTERPARTIES
// live on other shards the ring is cross-shard in a way intake cannot
// see (matching is what discovers counterparties), and the escalation
// sweep catches it by age instead.
func (m Map) OfOffer(offer core.Offer) (home int, cross bool) {
	if len(offer.Give) == 0 {
		return 0, false
	}
	home = m.Of(offer.Give[0].Chain)
	for _, tr := range offer.Give[1:] {
		if m.Of(tr.Chain) != home {
			cross = true
			break
		}
	}
	return home, cross
}

// Pools builds deterministic per-shard chain-name pools of perShard
// chains each, by walking a canonical name sequence ("c000", "c001", …)
// and keeping each name for the shard it hashes to. The load generator
// uses them to make ring placement a controlled variable: a ring built
// entirely from pool s is shard-local under this map, one mixing two
// pools is cross-shard. The walk is a pure function of (Shards,
// perShard), so generators, tests, and pinned digests agree on the pools
// without coordination.
func (m Map) Pools(perShard int) [][]string {
	if perShard < 1 {
		perShard = 1
	}
	pools := make([][]string, m.n)
	filled := 0
	for i := 0; filled < m.n; i++ {
		name := fmt.Sprintf("c%03d", i)
		s := m.Of(name)
		if len(pools[s]) < perShard {
			pools[s] = append(pools[s], name)
			if len(pools[s]) == perShard {
				filled++
			}
		}
	}
	return pools
}
