package conc

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

// TestEscrowSpansConformingSwap pins the capital-lock trace on the happy
// path: every arc of a conforming three-way swap publishes, so every arc
// gets exactly one span, ordered by arc ID, resolved, with a sane
// publish→resolve interval bounded by the run's settle tick. These spans
// are the integrand of the griefing-cost measure — if one goes missing
// or stretches past the settle tick, the economics layer misprices the
// swap.
func TestEscrowSpansConformingSwap(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	res, err := Run(setup, nil, Config{Scheduler: freeClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Fatal("conforming three-way swap should end AllDeal")
	}
	spec := setup.Spec
	if len(res.Escrows) != spec.D.NumArcs() {
		t.Fatalf("%d spans for %d arcs — a published contract left no trace",
			len(res.Escrows), spec.D.NumArcs())
	}
	for i, span := range res.Escrows {
		if i > 0 && span.ArcID <= res.Escrows[i-1].ArcID {
			t.Fatalf("spans not ordered by arc ID: %+v", res.Escrows)
		}
		if !span.Resolved {
			t.Fatalf("arc %d unresolved in an AllDeal run: %+v", span.ArcID, span)
		}
		if span.To < span.From {
			t.Fatalf("arc %d span runs backwards: %+v", span.ArcID, span)
		}
		if span.To > res.SettleTick {
			t.Fatalf("arc %d resolved at %d, after the settle tick %d",
				span.ArcID, span.To, res.SettleTick)
		}
	}
}

// TestEscrowSpansWithheldPublication pins the other half of the span
// contract: a contract that never deployed locked nothing, so a
// publication-withholding party's leaving arcs must be ABSENT from the
// spans — charging a victim for capital an adversary never escrowed
// would inflate every griefing number downstream. Whatever did publish
// still resolves (the conforming parties refund), so no span is left
// dangling at the horizon.
func TestEscrowSpansWithheldPublication(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	spec := setup.Spec
	// Withhold a follower's deployments: the leader still opens the swap,
	// so some arcs publish while the withheld party's never do.
	var withheld digraph.Vertex = 0
	if spec.IsLeader(withheld) {
		withheld = 1
	}
	res, err := Run(setup,
		map[digraph.Vertex]core.Behavior{withheld: adversary.WithholdPublications()},
		Config{Scheduler: freeClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AllDeal() {
		t.Fatal("a withheld deployment cannot end AllDeal")
	}
	if len(res.Escrows) == 0 {
		t.Fatal("leader's deployment left no span")
	}
	if len(res.Escrows) >= spec.D.NumArcs() {
		t.Fatalf("all %d arcs have spans despite a withheld deployment", len(res.Escrows))
	}
	for _, span := range res.Escrows {
		if spec.D.Arc(span.ArcID).Head == withheld {
			t.Fatalf("arc %d: withholding party charged for capital it never escrowed", span.ArcID)
		}
		if !span.Resolved {
			t.Fatalf("arc %d stranded — conforming parties must refund: %+v", span.ArcID, span)
		}
	}
}
