package engine

import (
	"fmt"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/core"
)

// TestShardMapRoutesUniquely: every offer resolves to exactly one home
// shard, in range, and the resolution is a pure function — the same
// offer routes identically however many times (and wherever) it is
// asked. This is the property that lets intake, recovery, and the
// one-shard replay of the pinned digests all compute placement
// independently.
func TestShardMapRoutesUniquely(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		m := NewMap(n)
		if m.Shards() != n {
			t.Fatalf("NewMap(%d).Shards() = %d", n, m.Shards())
		}
		for ring := 0; ring < 40; ring++ {
			for i := 0; i < 3; i++ {
				off := LoadOfferOn(ring, i, 3, ring, fmt.Sprintf("c%03d", (ring*7+i)%32))
				home, _ := m.OfOffer(off)
				if home < 0 || home >= n {
					t.Fatalf("n=%d: home %d out of range", n, home)
				}
				again, _ := m.OfOffer(off)
				if again != home {
					t.Fatalf("n=%d: OfOffer not deterministic: %d then %d", n, home, again)
				}
				if home != m.Of(off.Give[0].Chain) {
					t.Fatalf("n=%d: home %d disagrees with give-chain shard %d",
						n, home, m.Of(off.Give[0].Chain))
				}
			}
		}
	}
	if NewMap(0).Shards() != 1 || NewMap(-3).Shards() != 1 {
		t.Fatal("NewMap must floor the shard count at 1")
	}
}

// TestShardMapCrossDetection: an offer is flagged intake-cross exactly
// when the shards of its own give chains span more than one engine —
// the digraph-reachability criterion restricted to what intake can see
// (arcs the offer itself contributes). A single-transfer offer is never
// intake-cross by construction.
func TestShardMapCrossDetection(t *testing.T) {
	m := NewMap(4)
	chains := make([]string, 16)
	for i := range chains {
		chains[i] = fmt.Sprintf("c%03d", i)
	}
	mk := func(names ...string) core.Offer {
		off := LoadOfferOn(0, 0, 3, 0, names[0])
		for _, nm := range names[1:] {
			tr := off.Give[0]
			tr.Chain = nm
			tr.Asset = tr.Asset + "-x"
			off.Give = append(off.Give, tr)
		}
		return off
	}
	for a := 0; a < len(chains); a++ {
		if _, cross := m.OfOffer(mk(chains[a])); cross {
			t.Fatalf("single-transfer offer on %s flagged cross", chains[a])
		}
		for b := 0; b < len(chains); b++ {
			off := mk(chains[a], chains[b])
			home, cross := m.OfOffer(off)
			want := m.Of(chains[a]) != m.Of(chains[b])
			if cross != want {
				t.Fatalf("offer %s+%s: cross=%v, want %v", chains[a], chains[b], cross, want)
			}
			if home != m.Of(chains[a]) {
				t.Fatalf("offer %s+%s: home %d, want first-give shard %d",
					chains[a], chains[b], home, m.Of(chains[a]))
			}
		}
	}
}

// TestShardMapPools: the generated pools are disjoint, sized as asked,
// and internally consistent — every name in pool s hashes to shard s
// under the same map, so a ring drawn from one pool is shard-local by
// construction and one mixing two pools is cross-shard.
func TestShardMapPools(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		m := NewMap(n)
		pools := m.Pools(4)
		if len(pools) != n {
			t.Fatalf("n=%d: %d pools", n, len(pools))
		}
		seen := map[string]bool{}
		for s, pool := range pools {
			if len(pool) != 4 {
				t.Fatalf("n=%d: pool %d has %d chains, want 4", n, s, len(pool))
			}
			for _, name := range pool {
				if seen[name] {
					t.Fatalf("n=%d: chain %s appears in two pools", n, name)
				}
				seen[name] = true
				if m.Of(name) != s {
					t.Fatalf("n=%d: chain %s in pool %d but maps to shard %d",
						n, name, s, m.Of(name))
				}
			}
		}
	}
}
