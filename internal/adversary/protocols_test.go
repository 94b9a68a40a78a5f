package adversary

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
)

// TestStrategiesDeviateOnBothProtocols runs every named strategy on the
// three-cycle (Alice leads; arcs A->B, B->C, C->A) under the hashkey
// protocol and under the single-leader variant's classic HTLCs, and pins
// each party's payoff class on both. A strategy built on the wrong
// conforming base rejects its first entering contract as the wrong type
// and degenerates into abandon-at-first-contract, whatever its name; the
// classes below (and the no-rejection check) are what tell the deviations
// apart on HTLCs.
//
// The two columns differ only where the contracts do: a classic HTLC has
// no unlocked-but-unclaimed state, so a party that never "claims" never
// redeems, the secret stops travelling upstream at it, and it pays without
// being paid — still the only one worse off.
func TestStrategiesDeviateOnBothProtocols(t *testing.T) {
	const alice, bob, carol = digraph.Vertex(0), digraph.Vertex(1), digraph.Vertex(2)
	type classes [3]outcome.Class
	all := func(c outcome.Class) classes { return classes{c, c, c} }
	for _, tc := range []struct {
		name      string
		behaviors map[digraph.Vertex]core.Behavior
		deviant   digraph.Vertex
		general   classes
		htlc      classes
	}{
		{"silent-leader", map[digraph.Vertex]core.Behavior{alice: SilentLeader(0)}, alice,
			all(outcome.NoDeal), all(outcome.NoDeal)},
		{"withhold-publish", map[digraph.Vertex]core.Behavior{bob: WithholdPublications()}, bob,
			all(outcome.NoDeal), all(outcome.NoDeal)},
		{"no-claim", map[digraph.Vertex]core.Behavior{bob: NoClaim()}, bob,
			all(outcome.Deal), classes{outcome.FreeRide, outcome.Underwater, outcome.Deal}},
		{"no-claim-leader", map[digraph.Vertex]core.Behavior{alice: NoClaim()}, alice,
			all(outcome.Deal), all(outcome.NoDeal)},
		{"premature-reveal", map[digraph.Vertex]core.Behavior{alice: PrematureRevealer()}, alice,
			all(outcome.Deal), all(outcome.Deal)},
		{"corrupt-publish", map[digraph.Vertex]core.Behavior{alice: CorruptPublisher()}, alice,
			all(outcome.NoDeal), all(outcome.NoDeal)},
		{"eager-publish", map[digraph.Vertex]core.Behavior{alice: WithholdPublications(0), bob: EagerPublisher()}, bob,
			classes{outcome.FreeRide, outcome.Underwater, outcome.Deal},
			classes{outcome.FreeRide, outcome.Underwater, outcome.Deal}},
	} {
		for _, p := range []struct {
			kind core.Kind
			want classes
		}{{core.KindGeneral, tc.general}, {core.KindSingleLeader, tc.htlc}} {
			t.Run(tc.name+"/"+p.kind.String(), func(t *testing.T) {
				setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Kind: p.kind, Delta: 10, Start: 100})
				r := conc.NewRunner(setup)
				for v, b := range tc.behaviors {
					r.SetBehavior(v, b)
				}
				res := mustRun(t, r)
				assertConformingSafe(t, res)
				for v, want := range p.want {
					if got := res.Report.Of(digraph.Vertex(v)); got != want {
						t.Errorf("%s = %v, want %v", res.Spec.PartyOf(digraph.Vertex(v)), got, want)
					}
				}
				who := string(res.Spec.PartyOf(tc.deviant))
				deviated := res.Log.Filter(func(e trace.Event) bool {
					return e.Kind == trace.KindDeviation && e.Party == who
				})
				if len(deviated) == 0 {
					t.Errorf("%s never deviated: the strategy's action does not exist on this protocol's contracts", who)
				}
				rejected := res.Log.Filter(func(e trace.Event) bool {
					return e.Kind == trace.KindContractRejected && e.Party == who
				})
				if len(rejected) != 0 {
					t.Errorf("%s rejected a conforming counterparty's contract: %v", who, rejected)
				}
				if t.Failed() {
					t.Log("\n" + res.Log.Render())
				}
			})
		}
	}
}
