package core

import (
	"fmt"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// singleLeaderShapes is the property tests' corpus of Section 4.6
// digraphs: rings of 2–8 (and one past digraph.MaxExactVertices, where the
// general longest-path table degrades to a flat bound), flowers, and
// seeded leader-plus-DAG shapes.
func singleLeaderShapes() map[string]*digraph.Digraph {
	shapes := map[string]*digraph.Digraph{
		"ring-20":    graphgen.Cycle(20),
		"flower-3x2": graphgen.Flower(3, 2),
		"flower-2x4": graphgen.Flower(2, 4),
	}
	for n := 2; n <= 8; n++ {
		shapes[fmt.Sprintf("ring-%d", n)] = graphgen.Cycle(n)
	}
	for seed := int64(0); seed < 24; seed++ {
		n := 3 + int(seed%8)
		shapes[fmt.Sprintf("leader-dag-%d-seed%d", n, seed)] = graphgen.LeaderDAG(n, 0.3, seed)
	}
	return shapes
}

// TestSingleLeaderLadderLemma413 asserts Lemma 4.13's two conditions on the
// ladder the single-leader protocol runs on — the |L| = 1 row of the
// hashkey timelock table, not Figure 6's printed (diam + D + 1)·Δ — over
// the corpus, with and without a slow chain stretching the ladder's Δ:
// every follower's entering timeouts are at least Δ past its leaving ones,
// the leader's entering arcs stay open through Start + DiamBound·Δ, the
// exclusive HTLC timeout is the tick after the inclusive Swap timelock,
// and the run's MaxTimelock and Horizon do not depend on the contract.
func TestSingleLeaderLadderLemma413(t *testing.T) {
	for name, d := range singleLeaderShapes() {
		for _, slow := range []bool{false, true} {
			cfg := Config{Kind: KindByLeaders, Delta: 10, Start: 100}
			if slow {
				// Arc 0's chain confirms slowly: the whole ladder runs on 17.
				cfg.ChainDeltas = map[string]vtime.Duration{"chain-a0": 17}
			}
			hs := newTestSetup(t, d, cfg).Spec
			if hs.Kind != KindSingleLeader || len(hs.Leaders) != 1 {
				t.Fatalf("%s: KindByLeaders resolved to %s with leaders %v", name, hs.Kind, hs.Leaders)
			}
			cfg.Kind, cfg.Leaders = KindGeneral, hs.Leaders
			gs := newTestSetup(t, d, cfg).Spec
			leader, delta := hs.Leaders[0], hs.ladderDelta()
			if slow && delta != 17 {
				t.Fatalf("%s: ladder Δ = %d, want the slow chain's 17", name, delta)
			}

			for id := 0; id < d.NumArcs(); id++ {
				if got, want := hs.HTLCTimeout(id)-1, gs.Timelocks(id)[0]; got != want {
					t.Errorf("%s slow=%v arc %d: HTLCTimeout-1 = %d, Swap timelock = %d", name, slow, id, got, want)
				}
				if d.Arc(id).Tail == leader {
					if got, want := hs.HTLCTimeout(id)-1, hs.Start.Add(vtime.Scale(hs.DiamBound, delta)); got != want {
						t.Errorf("%s slow=%v: leader-entering arc %d open through %d, want Start + diam·Δ = %d",
							name, slow, id, got, want)
					}
				}
			}
			for v := 0; v < d.NumVertices(); v++ {
				if digraph.Vertex(v) == leader {
					continue
				}
				minIn, maxOut := vtime.Ticks(1<<62), vtime.Ticks(0)
				for _, id := range d.In(digraph.Vertex(v)) {
					minIn = min(minIn, hs.HTLCTimeout(id))
				}
				for _, id := range d.Out(digraph.Vertex(v)) {
					maxOut = max(maxOut, hs.HTLCTimeout(id))
				}
				if minIn < maxOut.Add(delta) {
					t.Errorf("%s slow=%v follower %d: earliest entering timeout %d < latest leaving %d + Δ",
						name, slow, v, minIn, maxOut)
				}
			}
			if hs.MaxTimelock() != gs.MaxTimelock() || hs.Horizon() != gs.Horizon() {
				t.Errorf("%s slow=%v: MaxTimelock/Horizon %d/%d on HTLCs, %d/%d on Swap contracts",
					name, slow, hs.MaxTimelock(), hs.Horizon(), gs.MaxTimelock(), gs.Horizon())
			}
		}
	}
}

// TestKindByLeadersKeepsMultiLeaderGeneral: the request resolves to the
// hashkey protocol whenever no single vertex is a feedback vertex set, and
// is never a Spec's own kind.
func TestKindByLeadersKeepsMultiLeaderGeneral(t *testing.T) {
	for name, d := range map[string]*digraph.Digraph{
		"two-leader-triangle": graphgen.TwoLeaderTriangle(),
		"clique-4":            graphgen.Clique(4),
		"bidir-cycle-4":       graphgen.BidirCycle(4),
	} {
		spec := newTestSetup(t, d, Config{Kind: KindByLeaders}).Spec
		if spec.Kind != KindGeneral || len(spec.Leaders) < 2 {
			t.Errorf("%s: resolved to %s with leaders %v, want general", name, spec.Kind, spec.Leaders)
		}
	}
	spec := newTestSetup(t, graphgen.ThreeWay(), Config{}).Spec
	spec.Kind = KindByLeaders
	if err := spec.Validate(false); err == nil {
		t.Error("a Spec carrying KindByLeaders validated; it is a request, not a protocol")
	}
}
