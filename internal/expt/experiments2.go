package expt

import (
	"fmt"
	"math/rand"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/baseline"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/pebble"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// E9Figure7Hashkeys enumerates the hashkey paths of the two-leader
// triangle, reproducing Figure 7's per-arc hashkey sets with their
// path-dependent deadlines.
func E9Figure7Hashkeys() (*Table, error) {
	d := graphgen.TwoLeaderTriangle()
	setup, err := core.NewSetup(d, core.Config{Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(12))})
	if err != nil {
		return nil, err
	}
	spec := setup.Spec
	t := &Table{
		ID:      "E9",
		Title:   "Figure 7: hashkey paths per arc of the two-leader triangle (deadline = (diam+|p|)·Δ)",
		Columns: []string{"arc", "lock (leader)", "path", "|p|", "deadline (Δ)"},
	}
	name := func(v digraph.Vertex) string { return d.Name(v) }
	for id := 0; id < d.NumArcs(); id++ {
		arc := d.Arc(id)
		for i, leader := range spec.Leaders {
			for _, p := range d.AllSimplePaths(arc.Tail, leader, 0) {
				pathStr := ""
				for j, v := range p {
					if j > 0 {
						pathStr += ">"
					}
					pathStr += name(v)
				}
				deadline := vtime.Scale(spec.DiamBound+p.Len(), spec.Delta)
				t.AddRow(
					fmt.Sprintf("%s->%s", name(arc.Head), name(arc.Tail)),
					fmt.Sprintf("s_%s", name(leader)),
					pathStr, p.Len(), vtime.InDelta(deadline, spec.Delta))
			}
			_ = i
		}
	}
	t.Notes = append(t.Notes,
		"every arc carries the full two-lock vector; each lock accepts one hashkey per simple path from the arc's counterparty to the lock's leader — exactly the s_A/s_B sets of Figure 7")
	return t, nil
}

// E10PebbleGames verifies Lemmas 4.1–4.3 (Figure 8's dynamics): both
// pebble games finish within diam(D) rounds, and the protocol's measured
// phase timings coincide with the games'.
func E10PebbleGames() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Lemmas 4.1–4.3 / Figure 8: pebble-game rounds vs diam(D), and protocol phase timing",
		Columns: []string{"digraph", "diam", "lazy rounds", "max eager rounds", "deploy span (Δ)", "phase-2 span (Δ)", "≤ diam"},
	}
	for _, f := range sweepFamilies() {
		setup, res, err := conformingRun(f.d, core.Config{}, 13)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		leaders := setup.Spec.Leaders
		lazy := pebble.Lazy(f.d, leaders)
		eagerMax := 0
		dt := f.d.Transpose()
		for _, l := range leaders {
			if e := pebble.Eager(dt, l); e.Rounds > eagerMax {
				eagerMax = e.Rounds
			}
		}
		diam := setup.Spec.DiamBound
		firstPub, _ := res.Log.First(trace.KindContractPublished)
		lastPub, _ := res.Log.Last(trace.KindContractPublished)
		firstUn, _ := res.Log.First(trace.KindUnlocked)
		lastUn, _ := res.Log.Last(trace.KindUnlocked)
		t.AddRow(f.name, diam, lazy.Rounds, eagerMax,
			vtime.InDelta(lastPub.At.Sub(firstPub.At), setup.Spec.Delta),
			vtime.InDelta(lastUn.At.Sub(firstUn.At), setup.Spec.Delta),
			lazy.Rounds <= diam && eagerMax <= diam)
	}
	t.Notes = append(t.Notes,
		"Phase One is the lazy game, Phase Two the eager game per secret on the transpose; measured spans equal the game round counts in Δ")
	return t, nil
}

// E11TimeoutAttacks contrasts the three designs under the Section 1
// last-moment-reveal attack and the sequential-settlement defection.
func E11TimeoutAttacks() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Section 1 attacks: who survives a last-moment reveal / a defector",
		Columns: []string{"protocol", "attack", "victim outcome", "atomic"},
	}
	d := graphgen.ThreeWay()

	// Uniform timeouts + last-moment reveal: Bob stranded.
	{
		setup, err := core.NewSetup(d, core.Config{
			Kind: core.KindUniformTimeout, Delta: 10, Start: 100,
			Rand: rand.New(rand.NewSource(14)),
		})
		if err != nil {
			return nil, err
		}
		r := conc.NewRunner(setup)
		r.SetBehavior(2, adversary.LastMomentRedeemer())
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		bob := res.Report.Of(1)
		t.AddRow("uniform-timeout HTLCs (broken baseline)", "Carol reveals at last moment", "Bob: "+bob.String(), bob != outcome.Underwater)
	}
	// Staircase timeouts + same attack: Bob fine.
	{
		setup, err := core.NewSetup(d, core.Config{
			Kind: core.KindSingleLeader, Delta: 10, Start: 100,
			Rand: rand.New(rand.NewSource(15)),
		})
		if err != nil {
			return nil, err
		}
		r := conc.NewRunner(setup)
		r.SetBehavior(2, adversary.LastMomentRedeemer())
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		bob := res.Report.Of(1)
		t.AddRow("single-leader staircase (Section 4.6)", "Carol reveals at last moment", "Bob: "+bob.String(), bob != outcome.Underwater)
	}
	// General hashkey protocol + last-moment unlocks: everyone fine.
	{
		setup, err := core.NewSetup(d, core.Config{
			Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(16)),
		})
		if err != nil {
			return nil, err
		}
		r := conc.NewRunner(setup)
		r.SetBehavior(2, adversary.LastMomentUnlocker())
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		bob := res.Report.Of(1)
		t.AddRow("general hashkey protocol (Section 4.5)", "Carol unlocks at deadlines", "Bob: "+bob.String(), bob != outcome.Underwater)
	}
	// Sequential plain transfers + defector: Alice stranded.
	{
		res, err := baseline.Sequential(d, baseline.DefaultAssets(d), baseline.PartyNames(d), 10,
			map[digraph.Vertex]bool{2: true})
		if err != nil {
			return nil, err
		}
		alice := res.Report.Of(0)
		t.AddRow("sequential plain transfers (baseline)", "Carol keeps the title", "Alice: "+alice.String(), alice != outcome.Underwater)
	}
	t.Notes = append(t.Notes,
		"the two baselines strand a conforming party; both paper protocols absorb the attack — the staircase/hashkey deadlines are the whole trick")
	return t, nil
}

// E12GriefingLockup measures the Section 5 DoS: how long assets stay
// locked when a party aborts at each phase boundary.
func E12GriefingLockup() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Section 5 griefing: asset lockup when a party aborts at each phase point",
		Columns: []string{"abort at", "contracts published", "refunds", "last refund (Δ after start)", "bound 2·diam·Δ+1"},
	}
	d := graphgen.ThreeWay()
	for haltDelta := 0; haltDelta <= 4; haltDelta++ {
		setup, err := core.NewSetup(d, core.Config{
			Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(int64(17 + haltDelta))),
		})
		if err != nil {
			return nil, err
		}
		r := conc.NewRunner(setup)
		haltAt := setup.Spec.Start.Add(vtime.Scale(haltDelta, setup.Spec.Delta)).Add(5)
		r.SetBehavior(2, adversary.HaltAt(core.NewConforming(), haltAt))
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		refunds := res.Log.OfKind(trace.KindRefunded)
		lastRefund := "-"
		if last, ok := res.Log.Last(trace.KindRefunded); ok {
			lastRefund = vtime.InDelta(last.At.Sub(setup.Spec.Start), setup.Spec.Delta)
		}
		bound := vtime.InDelta(vtime.Scale(2*setup.Spec.DiamBound, setup.Spec.Delta)+1, setup.Spec.Delta)
		t.AddRow(fmt.Sprintf("T+%dΔ+ε", haltDelta),
			len(res.Log.OfKind(trace.KindContractPublished)), len(refunds), lastRefund, bound)
	}
	t.Notes = append(t.Notes,
		"a griefing counterparty can lock assets for at most 2·diam·Δ (+1 tick) before refunds release them — the bounded-escrow property")
	return t, nil
}

// E13RecurrentSwaps measures the Section 5 recurrent extension: hashlocks
// for round r+1 distributed during round r remove the inter-round gap.
func E13RecurrentSwaps() (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Section 5: recurrent swaps — piggybacked hashlock distribution vs re-clearing",
		Columns: []string{"mode", "rounds", "all Deal", "total (Δ)", "avg per round (Δ)"},
	}
	d := graphgen.ThreeWay()
	const rounds = 5
	for _, piggy := range []bool{true, false} {
		res, err := conc.RunRecurrent(d, rounds, piggy, rand.New(rand.NewSource(18)))
		if err != nil {
			return nil, err
		}
		all := true
		for _, r := range res.Rounds {
			all = all && r.AllDeal
		}
		mode := "re-clearing gap (2Δ per round)"
		if piggy {
			mode = "piggybacked (Phase Two carries next locks)"
		}
		t.AddRow(mode, rounds, all,
			vtime.InDelta(res.TotalTicks, core.DefaultDelta),
			vtime.InDelta(res.TotalTicks/vtime.Duration(rounds), core.DefaultDelta))
	}
	return t, nil
}

// E14FeedbackVertexSets compares the exact minimum FVS with the greedy
// heuristic (Section 5 notes minimum FVS is NP-complete).
func E14FeedbackVertexSets() (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Section 5: leader selection — exact minimum FVS vs greedy heuristic",
		Columns: []string{"digraph", "|V|", "|A|", "exact |L|", "greedy |L|", "optimal"},
	}
	for _, f := range sweepFamilies() {
		exact := f.d.ExactMinFVS()
		greedy := f.d.GreedyFVS()
		t.AddRow(f.name, f.d.NumVertices(), f.d.NumArcs(), len(exact), len(greedy),
			len(greedy) == len(exact))
	}
	t.Notes = append(t.Notes,
		"fewer leaders mean fewer hashlocks per contract and less unlock traffic (see E4); the greedy heuristic is optimal on all these families except occasionally dense random graphs")
	return t, nil
}

// E15BroadcastShortCircuit measures the Section 4.5 optimization: Phase
// Two becomes constant-time with a shared broadcast chain.
func E15BroadcastShortCircuit() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Section 4.5: Phase Two span without vs with the broadcast chain",
		Columns: []string{"digraph", "diam", "phase-2 span plain (Δ)", "phase-2 span broadcast (Δ)"},
	}
	for _, n := range []int{4, 6, 8, 12} {
		span := func(bc bool) (string, error) {
			setup, res, err := conformingRun(graphgen.Cycle(n), core.Config{Broadcast: bc}, int64(20+n))
			if err != nil {
				return "", err
			}
			if !res.Report.AllDeal() {
				return "", fmt.Errorf("cycle-%d bc=%v: not AllDeal", n, bc)
			}
			first, _ := res.Log.First(trace.KindSecretRevealed)
			last, _ := res.Log.Last(trace.KindUnlocked)
			return vtime.InDelta(last.At.Sub(first.At), setup.Spec.Delta), nil
		}
		plain, err := span(false)
		if err != nil {
			return nil, err
		}
		bc, err := span(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("cycle-%d", n), n-1, plain, bc)
	}
	t.Notes = append(t.Notes,
		"plain Phase Two walks the transpose (O(diam)); the broadcast chain short-circuits it to one Δ regardless of size — but cannot replace the per-arc protocol (a deviating leader might broadcast nothing)")
	return t, nil
}

// E16Multigraph runs the Section 5 multigraph extension: parallel arcs
// between the same parties, each with its own contract.
func E16Multigraph() (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Section 5: directed multigraph — parallel arcs, one contract each",
		Columns: []string{"parallel arcs", "|A|", "all Deal", "unlock calls"},
	}
	for _, k := range []int{2, 3, 5} {
		_, res, err := conformingRun(graphgen.MultiArcPair(k), core.Config{}, int64(21+k))
		if err != nil {
			return nil, err
		}
		t.AddRow(k, k+1, res.Report.AllDeal(), res.Counters.UnlockCalls)
	}
	return t, nil
}
