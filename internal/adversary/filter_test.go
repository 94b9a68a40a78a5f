package adversary

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func TestDropRefundLeavesEscrowStuck(t *testing.T) {
	// Alice never refunds and the leader never reveals: her asset stays
	// in escrow forever. She harms only herself; classification treats
	// the arc as untriggered.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	idx, _ := setup.Spec.LeaderIndex(0)
	r := conc.NewRunner(setup)
	r.SetBehavior(0, Filtered(core.NewConforming(), Filter{
		DropUnlock:    func(_, l int) bool { return l == idx }, // silent leader...
		DropBroadcast: func(int) bool { return true },
		DropRefund:    func(int) bool { return true }, // ...who also never refunds
	}))
	res := mustRun(t, r)
	assertConformingSafe(t, res)
	// Alice's leaving arc 0 contract was published and never settled.
	if settled := res.Registry.Chain(setup.Spec.Assets[0].Chain).Closed(setup.Spec.ContractID(0)); settled {
		t.Error("arc 0 should be stuck in escrow with refunds dropped")
	}
	// The conformers refunded theirs.
	if got := len(res.Log.OfKind(trace.KindRefunded)); got != 2 {
		t.Errorf("refunds = %d, want 2 (Bob's and Carol's)", got)
	}
}

func TestDelayedUnlockStillLands(t *testing.T) {
	// On the directed 3-cycle the schedule is exactly tight — any delay
	// misses a deadline (see E2: the 2·diam·Δ bound is met with
	// equality). The two-leader triangle has slack: C's |p|=1 hashkeys
	// stay valid until T+3Δ, so delaying her unlocks from T+3 ticks to
	// T+2.5Δ changes nothing.
	setup := mustSetup(t, graphgen.TwoLeaderTriangle(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	r.SetBehavior(2, Filtered(core.NewConforming(), Filter{
		DelayUnlock: func(int, int) (vtime.Ticks, bool) { return 125, true },
	}))
	res := mustRun(t, r)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Error("an in-deadline unlock delay should still complete the swap")
	}
}

func TestDropRedeemFilter(t *testing.T) {
	// Single-leader variant: Carol's redeems are dropped; she never takes
	// her bitcoins, so her entering arc refunds — but the secret reached
	// her leaving arc first, so everyone upstream is fine or better.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{
		Kind: core.KindSingleLeader, Delta: 10, Start: 100,
	})
	r := conc.NewRunner(setup)
	r.SetBehavior(2, Filtered(core.NewConformingHTLC(), Filter{
		DropRedeem: func(int) bool { return true },
	}))
	res := mustRun(t, r)
	assertConformingSafe(t, res)
	if got := res.Report.Of(2); got == outcome.Deal {
		t.Error("Carol dropped her own redeems; she cannot have full Deal")
	}
}

func TestHalterSuppressesAlarms(t *testing.T) {
	// A party that crashes before its refund alarms must not refund: its
	// escrow stays locked even after the timelocks.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	idx, _ := setup.Spec.LeaderIndex(0)
	r := conc.NewRunner(setup)
	// The leader goes silent so refunds are the only resolution...
	r.SetBehavior(0, SilentLeader(idx))
	// ...and Bob crashes right after publishing (t=100), before any
	// timelock fires.
	r.SetBehavior(1, HaltAt(core.NewConforming(), 101))
	res := mustRun(t, r)
	refundedArcs := map[int]bool{}
	for _, ev := range res.Log.OfKind(trace.KindRefunded) {
		refundedArcs[ev.Arc] = true
	}
	if refundedArcs[1] {
		t.Error("crashed Bob's alarm fired anyway: arc 1 should stay locked")
	}
	if !refundedArcs[0] || !refundedArcs[2] {
		t.Errorf("live parties should refund their arcs, got %v", refundedArcs)
	}
}

func TestCoalitionPathHelpers(t *testing.T) {
	d := graphgen.TwoLeaderTriangle()
	members := map[digraph.Vertex]bool{0: true, 2: true}
	// Direct arc inside the coalition.
	if p := coalitionPath(d, 2, 0, members); p == nil || p.Len() != 1 {
		t.Errorf("coalition path C->A = %v, want length 1", p)
	}
	// Target outside the coalition.
	if p := coalitionPath(d, 2, 1, members); p != nil {
		t.Errorf("path to non-member should be nil, got %v", p)
	}
	// Degenerate.
	if p := coalitionPath(d, 1, 1, map[digraph.Vertex]bool{1: true}); p == nil || p.Len() != 0 {
		t.Errorf("self path = %v, want degenerate", p)
	}
}
