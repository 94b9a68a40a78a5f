package adversary

import (
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// hashkeyNewForTest builds the leader's degenerate hashkey from leaked
// material, as an out-of-band exploiter would.
func hashkeyNewForTest(secret hashkey.Secret, setup *core.Setup, leader digraph.Vertex) hashkey.Hashkey {
	return hashkey.New(secret, setup.Signers[leader])
}

func mustSetup(t *testing.T, d *digraph.Digraph, cfg core.Config) *core.Setup {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(4))
	}
	setup, err := core.NewSetup(d, cfg)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	return setup
}

func mustRun(t *testing.T, r *conc.Runner) *core.Result {
	t.Helper()
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// assertConformingSafe fails if any vertex running the default conforming
// behavior ended Underwater — the Theorem 4.9 guarantee.
func assertConformingSafe(t *testing.T, res *core.Result) {
	t.Helper()
	for _, v := range res.Conforming {
		if got := res.Report.Of(v); got == outcome.Underwater {
			t.Errorf("conforming party %s ended Underwater", res.Spec.PartyOf(v))
			t.Log("\n" + res.Log.Render())
		}
	}
}

func TestHaltBeforePhaseOneAllRefund(t *testing.T) {
	// Bob crashes before the protocol starts: nothing he owes is
	// published, every deployed contract times out, everyone ends NoDeal.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{})
	r := conc.NewRunner(setup)
	r.SetBehavior(1, HaltAt(core.NewConforming(), 0))
	res := mustRun(t, r)

	assertConformingSafe(t, res)
	for _, v := range res.Spec.D.Vertices() {
		if got := res.Report.Of(v); got != outcome.NoDeal {
			t.Errorf("%s = %v, want NoDeal", res.Spec.PartyOf(v), got)
		}
	}
	// Alice deployed and must have been refunded.
	if got := len(res.Log.OfKind(trace.KindRefunded)); got == 0 {
		t.Error("expected at least one refund")
	}
}

func TestHaltDuringPhaseTwo(t *testing.T) {
	// Carol crashes right after Alice reveals: Alice has opened the lock
	// on Carol's leaving arc (C->A), so Alice can claim the title; Carol
	// never propagates the secret, so the other contracts refund. Carol —
	// the crashed party — is the only one Underwater.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	// Alice reveals (unlocks arc 2) at 120; Carol dies at 125, before she
	// can observe and propagate at 130.
	r.SetBehavior(2, HaltAt(core.NewConforming(), 125))
	res := mustRun(t, r)

	assertConformingSafe(t, res)
	if got := res.Report.Of(2); got != outcome.Underwater {
		t.Errorf("crashed Carol = %v, want Underwater (her deviation harms only her)", got)
	}
	if got := res.Report.Of(0); got != outcome.FreeRide {
		t.Errorf("Alice = %v, want FreeRide (got the title, alt-coins refunded)", got)
	}
	if got := res.Report.Of(1); got != outcome.NoDeal {
		t.Errorf("Bob = %v, want NoDeal", got)
	}
}

func TestSilentLeaderGriefing(t *testing.T) {
	// The Section 5 DoS: a leader that completes Phase One and never
	// reveals. All assets come back, bounded by the max timelock.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	idx, _ := setup.Spec.LeaderIndex(0)
	r := conc.NewRunner(setup)
	r.SetBehavior(0, SilentLeader(idx))
	res := mustRun(t, r)

	assertConformingSafe(t, res)
	for _, v := range res.Spec.D.Vertices() {
		if got := res.Report.Of(v); got != outcome.NoDeal {
			t.Errorf("%s = %v, want NoDeal", res.Spec.PartyOf(v), got)
		}
	}
	// Lockup is bounded: every refund lands within a tick of its
	// timelock, and no later than MaxTimelock+1.
	refunds := res.Log.OfKind(trace.KindRefunded)
	if len(refunds) != 3 {
		t.Fatalf("refunds = %d, want 3", len(refunds))
	}
	deadline := setup.Spec.MaxTimelock().Add(1)
	for _, ev := range refunds {
		if ev.At.After(deadline) {
			t.Errorf("refund of arc %d at %d, after bound %d", ev.Arc, ev.At, deadline)
		}
	}
}

func TestWithholdPublicationsIsSafe(t *testing.T) {
	setup := mustSetup(t, graphgen.TwoLeaderTriangle(), core.Config{})
	r := conc.NewRunner(setup)
	r.SetBehavior(2, WithholdPublications()) // C publishes nothing
	res := mustRun(t, r)
	assertConformingSafe(t, res)
}

func TestNoClaimStillTriggers(t *testing.T) {
	// A counterparty that never claims leaves the contract as a fully
	// unlocked bearer right: the arc still counts as triggered, everyone
	// is Deal.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{})
	r := conc.NewRunner(setup)
	r.SetBehavior(1, NoClaim())
	res := mustRun(t, r)
	assertConformingSafe(t, res)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Error("lazy claimer should not change anyone's outcome class")
	}
}

func TestIntroLeakExploitsPlainHTLC(t *testing.T) {
	// Section 1's "irrational Alice" under the intro's plain-HTLC
	// protocol: Alice leaks s before Phase One completes (modeled by
	// handing her secret to the other behaviors out of band). "Bob can
	// take Alice's alt-coins, and perhaps Carol can take Bob's bitcoins,
	// but Alice will not get her Cadillac, so only she is worse off."
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{
		Kind: core.KindSingleLeader, Delta: 10, Start: 100,
	})
	leaked := setup.Secrets[0]
	r := conc.NewRunner(setup)
	// Alice runs the protocol (her deviation is the leak itself, so she
	// is registered as non-conforming).
	r.SetBehavior(0, core.NewConformingHTLC())
	// Bob redeems Alice's contract with the leaked secret immediately.
	r.SetBehavior(1, Scripted(core.NewConformingHTLC(), Step{
		At: 100,
		Do: func(e core.Env) { _ = e.Redeem(0, leaked) },
	}))
	// Carol grabs Bob's bitcoins with the leaked secret and never
	// publishes the title contract.
	r.SetBehavior(2, Scripted(nil, Step{
		At: 110,
		Do: func(e core.Env) { _ = e.Redeem(1, leaked) },
	}))
	res := mustRun(t, r)

	if got := res.Report.Of(0); got != outcome.Underwater {
		t.Log("\n" + res.Log.Render())
		t.Errorf("leaking Alice = %v, want Underwater (only she is worse off)", got)
	}
	if got := res.Report.Of(1); got != outcome.Deal {
		t.Errorf("Bob = %v, want Deal", got)
	}
	if got := res.Report.Of(2); got != outcome.FreeRide {
		t.Errorf("Carol = %v, want FreeRide (bitcoins in, nothing paid)", got)
	}
}

func TestLeakedSecretUselessWithoutSignatures(t *testing.T) {
	// The same leak against the general (hashkey) protocol is harmless:
	// a bare secret cannot open a hashlock without a signature chain from
	// the presenting counterparty to the leader, and honest parties will
	// not sign early. Bob tries Carol's exploit and fails.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	leaked := setup.Secrets[0]
	leader := setup.Spec.Leaders[0]
	forged := hashkeyNewForTest(leaked, setup, leader)
	r := conc.NewRunner(setup)
	var exploitErr error
	r.SetBehavior(1, Scripted(core.NewConforming(), Step{
		At: 105,
		Do: func(e core.Env) {
			// Bob presents the leader's degenerate hashkey on his
			// entering arc: the path does not start at him, so the
			// contract rejects it.
			exploitErr = e.Unlock(0, 0, forged)
		},
	}))
	res := mustRun(t, r)
	if exploitErr == nil {
		t.Error("bare-secret unlock should be rejected by the path check")
	}
	assertConformingSafe(t, res)
	if !res.Report.AllDeal() {
		t.Error("failed exploit should leave the swap unharmed")
	}
}

func TestPrematureRevealerHarmlessAmongConformers(t *testing.T) {
	// A leader that reveals on entering contracts as soon as they exist
	// (instead of waiting for all of them) cannot hurt anyone when the
	// rest conform — secrets just move a little earlier.
	setup := mustSetup(t, graphgen.TwoLeaderTriangle(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	r.SetBehavior(0, PrematureRevealer())
	res := mustRun(t, r)
	assertConformingSafe(t, res)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Error("premature reveal among conformers should still reach AllDeal")
	}
}

func TestEagerFollowerPunished(t *testing.T) {
	// Lemma 4.11: Bob publishes his leaving contract before his entering
	// arc is covered. Withholding Alice plus fully conforming Carol
	// drain him: Bob ends Underwater.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	r.SetBehavior(0, WithholdPublications(0)) // Alice never publishes A->B
	r.SetBehavior(1, EagerPublisher())
	res := mustRun(t, r)

	if got := res.Report.Of(1); got != outcome.Underwater {
		t.Log("\n" + res.Log.Render())
		t.Errorf("eager Bob = %v, want Underwater (ordering is load-bearing)", got)
	}
	// Carol conformed and must be safe.
	assertConformingSafe(t, res)
	if got := res.Report.Of(2); got.Acceptable() == false {
		t.Errorf("conforming Carol = %v, want acceptable", got)
	}
}

func TestLastMomentUnlockHarmlessInGeneralProtocol(t *testing.T) {
	// E11, hashkey side: delaying every unlock to its inclusive deadline
	// still completes the swap — path-dependent deadlines absorb it.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	r.SetBehavior(2, LastMomentUnlocker())
	res := mustRun(t, r)
	assertConformingSafe(t, res)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Error("last-moment unlocking must not break the hashkey protocol")
	}
}

func TestUniformTimeoutAttack(t *testing.T) {
	// E11, the Section 1 attack: equal timeouts let Carol redeem at the
	// last moment, leaving conforming Bob Underwater. This is the broken
	// baseline — it is WHY timeouts must form a staircase.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{
		Kind: core.KindUniformTimeout, Delta: 10, Start: 100,
	})
	r := conc.NewRunner(setup)
	r.SetBehavior(2, LastMomentRedeemer())
	res := mustRun(t, r)

	if got := res.Report.Of(1); got != outcome.Underwater {
		t.Log("\n" + res.Log.Render())
		t.Errorf("Bob = %v, want Underwater under uniform timeouts", got)
	}
}

func TestStaircaseDefeatsLastMomentAttack(t *testing.T) {
	// Same attack against the Section 4.6 staircase: Bob has a full Δ
	// after Carol's last-moment redeem and finishes the swap.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{
		Kind: core.KindSingleLeader, Delta: 10, Start: 100,
	})
	r := conc.NewRunner(setup)
	r.SetBehavior(2, LastMomentRedeemer())
	res := mustRun(t, r)

	assertConformingSafe(t, res)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Error("staircase timeouts must absorb the last-moment reveal")
	}
}

func TestNonStronglyConnectedBreaksUniformity(t *testing.T) {
	// Lemma 3.4 / Theorem 3.5: on a non-strongly-connected digraph even
	// all-conforming execution cannot deliver Deal to everyone: the X
	// side completes its internal cycle (the bridge head even gets a
	// Discount), the Y side is structurally stuck at NoDeal.
	d := graphgen.NotStronglyConnected(3, 3)
	setup := mustSetup(t, d, core.Config{AllowUnsafe: true})
	res := mustRun(t, conc.NewRunner(setup))

	assertConformingSafe(t, res)
	if res.Report.AllDeal() {
		t.Fatal("non-SC digraph must not reach AllDeal")
	}
	if got := res.Report.Of(0); got != outcome.Discount {
		t.Errorf("bridge head X0 = %v, want Discount (the free-riding payoff)", got)
	}
	for v := 3; v < 6; v++ {
		if got := res.Report.Of(digraph.Vertex(v)); got != outcome.NoDeal {
			t.Errorf("Y%d = %v, want NoDeal", v-3, got)
		}
	}
}

func TestCorruptContractRejected(t *testing.T) {
	// Phase One's verification step: Alice publishes a contract whose
	// timelock disagrees with the plan. Bob must reject it and abandon,
	// the swap dies cleanly, and nobody ends Underwater.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	r.SetBehavior(0, CorruptPublisher())
	res := mustRun(t, r)

	assertConformingSafe(t, res)
	rejected := res.Log.OfKind(trace.KindContractRejected)
	if len(rejected) == 0 {
		t.Fatal("Bob should have rejected the corrupted contract")
	}
	abandoned := res.Log.OfKind(trace.KindAbandoned)
	if len(abandoned) == 0 {
		t.Fatal("Bob should have abandoned after rejecting")
	}
	if res.Report.AllDeal() {
		t.Error("swap with a corrupted contract must not complete")
	}
	for _, v := range res.Spec.D.Vertices() {
		if got := res.Report.Of(v); got != outcome.NoDeal {
			t.Errorf("%s = %v, want NoDeal", res.Spec.PartyOf(v), got)
		}
	}
}

func TestScriptedStep(t *testing.T) {
	// Scripted steps run at their scheduled times with the party's env.
	setup := mustSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := conc.NewRunner(setup)
	var firedAt vtime.Ticks
	r.SetBehavior(1, Scripted(core.NewConforming(), Step{
		At: 115,
		Do: func(e core.Env) { firedAt = e.Now() },
	}))
	res := mustRun(t, r)
	if firedAt != 115 {
		t.Errorf("scripted step fired at %d, want 115", firedAt)
	}
	assertConformingSafe(t, res)
}

// TestTheorem49Fuzz is the central safety property: across random
// strongly connected digraphs and random maximally-colluding coalitions
// (secret sharing, random withholding, random crashes), no conforming
// party ever ends Underwater.
func TestTheorem49Fuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	const runs = 120
	// One verification cache shared across every fuzz iteration, exactly
	// as the clearing engine shares one across all its swaps: coalition
	// chains must stay correctly judged even with a hot cross-swap cache.
	vcache := hashkey.NewVerifyCache(0)
	for seed := int64(0); seed < runs; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		d := graphgen.RandomStronglyConnected(n, 0.25+rng.Float64()*0.3, seed)
		cfg := core.Config{Rand: rand.New(rand.NewSource(seed + 1000)), Cache: vcache}
		if rng.Intn(3) == 0 {
			cfg.Broadcast = true
		}
		setup, err := core.NewSetup(d, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Random non-empty strict subset as the coalition.
		var members []digraph.Vertex
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				members = append(members, digraph.Vertex(v))
			}
		}
		if len(members) == n {
			members = members[1:]
		}
		r := conc.NewRunner(setup)
		for v, b := range Coalition(CoalitionConfig{
			Setup:    setup,
			Members:  members,
			Seed:     seed,
			DropProb: 0.35,
			HaltProb: 0.3,
		}) {
			r.SetBehavior(v, b)
		}
		res := mustRun(t, r)
		for _, v := range res.Conforming {
			if res.Report.Of(v) == outcome.Underwater {
				t.Fatalf("seed %d: conforming %s Underwater\n%s",
					seed, res.Spec.PartyOf(v), res.Log.Render())
			}
		}
		if !res.Registry.VerifyAllLedgers() {
			t.Fatalf("seed %d: ledger corruption", seed)
		}
		// Conservation: every asset still exists, owned by the original
		// party, the counterparty, or an escrow — never anyone else.
		for id := 0; id < setup.Spec.D.NumArcs(); id++ {
			aa := setup.Spec.Assets[id]
			owner, ok := res.Registry.Chain(aa.Chain).OwnerOf(aa.Asset)
			if !ok {
				t.Fatalf("seed %d: asset %s vanished", seed, aa.Asset)
			}
			arc := setup.Spec.D.Arc(id)
			head, tail := setup.Spec.PartyOf(arc.Head), setup.Spec.PartyOf(arc.Tail)
			legal := owner.Kind == chain.OwnerEscrow ||
				owner.Party == head || owner.Party == tail
			if !legal {
				t.Fatalf("seed %d: asset %s leaked to %v", seed, aa.Asset, owner)
			}
		}
	}
	if st := vcache.Stats(); st.Misses == 0 {
		t.Error("shared verify cache saw no traffic; fuzz no longer exercises cached verification")
	}
}

// TestTheorem47Fuzz is the liveness side: with no adversary at all,
// random digraphs always reach AllDeal within 2·diam·Δ.
func TestTheorem47Fuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	for seed := int64(0); seed < 60; seed++ {
		n := 3 + int(seed%8)
		d := graphgen.RandomStronglyConnected(n, 0.3, seed)
		setup := mustSetup(t, d, core.Config{Rand: rand.New(rand.NewSource(seed + 99))})
		res := mustRun(t, conc.NewRunner(setup))
		if !res.Report.AllDeal() {
			t.Fatalf("seed %d: not AllDeal\n%s", seed, res.Log.Render())
		}
		bound := setup.Spec.Start.Add(vtime.Scale(2*setup.Spec.DiamBound, setup.Spec.Delta))
		if last, ok := res.Log.Last(trace.KindUnlocked); ok && last.At.After(bound) {
			t.Fatalf("seed %d: unlock at %d beyond bound %d", seed, last.At, bound)
		}
	}
}

// TestHaltSweepSingleLeader injects crashes at every Δ boundary of the
// single-leader protocol and checks the conforming parties stay safe.
func TestHaltSweepSingleLeader(t *testing.T) {
	for haltDelta := 0; haltDelta <= 6; haltDelta++ {
		for victim := 0; victim < 3; victim++ {
			setup := mustSetup(t, graphgen.ThreeWay(), core.Config{
				Kind: core.KindSingleLeader, Delta: 10, Start: 100,
				Rand: rand.New(rand.NewSource(int64(10*haltDelta + victim))),
			})
			r := conc.NewRunner(setup)
			haltAt := setup.Spec.Start.Add(vtime.Scale(haltDelta, setup.Spec.Delta))
			r.SetBehavior(digraph.Vertex(victim), HaltAt(core.NewConformingHTLC(), haltAt))
			res := mustRun(t, r)
			assertConformingSafe(t, res)
		}
	}
}

// TestHaltSweepGeneral does the same for the hashkey protocol.
func TestHaltSweepGeneral(t *testing.T) {
	for haltDelta := 0; haltDelta <= 6; haltDelta++ {
		for victim := 0; victim < 3; victim++ {
			setup := mustSetup(t, graphgen.TwoLeaderTriangle(), core.Config{
				Delta: 10, Start: 100,
				Rand: rand.New(rand.NewSource(int64(10*haltDelta + victim))),
			})
			r := conc.NewRunner(setup)
			haltAt := setup.Spec.Start.Add(vtime.Scale(haltDelta, setup.Spec.Delta))
			r.SetBehavior(digraph.Vertex(victim), HaltAt(core.NewConforming(), haltAt))
			res := mustRun(t, r)
			assertConformingSafe(t, res)
		}
	}
}
