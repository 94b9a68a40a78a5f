package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// family is a named digraph for sweeps.
type family struct {
	name string
	d    *digraph.Digraph
}

func sweepFamilies() []family {
	return []family{
		{"three-way (Fig 1)", graphgen.ThreeWay()},
		{"two-leader triangle (Fig 7)", graphgen.TwoLeaderTriangle()},
		{"cycle-4", graphgen.Cycle(4)},
		{"cycle-6", graphgen.Cycle(6)},
		{"cycle-8", graphgen.Cycle(8)},
		{"cycle-12", graphgen.Cycle(12)},
		{"bidir-cycle-5", graphgen.BidirCycle(5)},
		{"bidir-cycle-7", graphgen.BidirCycle(7)},
		{"clique-4", graphgen.Clique(4)},
		{"clique-5", graphgen.Clique(5)},
		{"clique-6", graphgen.Clique(6)},
		{"flower-3x2", graphgen.Flower(3, 2)},
		{"flower-4x2", graphgen.Flower(4, 2)},
		{"random-8", graphgen.RandomStronglyConnected(8, 0.3, 42)},
		{"random-10", graphgen.RandomStronglyConnected(10, 0.25, 43)},
		{"random-12", graphgen.RandomStronglyConnected(12, 0.2, 44)},
	}
}

func conformingRun(d *digraph.Digraph, cfg core.Config, seed int64) (*core.Setup, *core.Result, error) {
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(seed + 7777))
	}
	setup, err := core.NewSetup(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := conc.NewRunner(setup).Run()
	return setup, res, err
}

// E1Timeline reproduces Figures 1 and 2: the Alice–Bob–Carol swap, event
// by event, in Δ units from the start time.
func E1Timeline() (*Table, error) {
	setup, res, err := conformingRun(graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100}, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E1",
		Title:   "Figures 1–2: three-way swap timeline (Δ units from start T)",
		Columns: []string{"t-T", "event", "party", "arc", "detail"},
	}
	for _, ev := range res.Log.Events() {
		if ev.Kind == trace.KindBroadcast {
			continue
		}
		arc := "-"
		if ev.Arc >= 0 {
			a := setup.Spec.D.Arc(ev.Arc)
			arc = fmt.Sprintf("%s->%s", setup.Spec.D.Name(a.Head), setup.Spec.D.Name(a.Tail))
		}
		detail := ev.Detail
		if ev.Kind == trace.KindUnlocked {
			detail = unlockPath(setup.Spec, res.Registry, ev.Arc, ev.Lock)
		}
		t.AddRow(vtime.InDelta(ev.At.Sub(setup.Spec.Start), setup.Spec.Delta), ev.Kind, ev.Party, arc, detail)
	}
	t.Notes = append(t.Notes,
		"deploys run leader->follower (lazy pebble game), unlocks run backwards (eager game on the transpose)",
		fmt.Sprintf("all parties Deal: %v; paper predicts completion ≤ 2·diam·Δ = 4Δ", res.Report.AllDeal()))
	return t, nil
}

// unlockPath reads the hashkey path that opened a lock off the arc's public
// ledger: the unlock record's note ends in it.
func unlockPath(spec *core.Spec, reg *chain.Registry, arc, lock int) string {
	opened := fmt.Sprintf("%s: hashlock %d opened, ", htlc.MethodUnlock, lock)
	for _, rec := range reg.Chain(spec.Assets[arc].Chain).Records() {
		if path, ok := strings.CutPrefix(rec.Note, opened); ok && rec.Contract == spec.ContractID(arc) {
			return path
		}
	}
	return ""
}

// E2CompletionTime measures Theorem 4.7: all-conforming completion within
// 2·diam(D)·Δ across graph families.
func E2CompletionTime() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Theorem 4.7: completion time vs the 2·diam(D)·Δ bound (all conforming)",
		Columns: []string{"digraph", "|V|", "|A|", "|L|", "diam", "last unlock (Δ)", "bound (Δ)", "within"},
	}
	for _, f := range sweepFamilies() {
		setup, res, err := conformingRun(f.d, core.Config{}, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		if !res.Report.AllDeal() {
			return nil, fmt.Errorf("%s: not AllDeal", f.name)
		}
		last, _ := res.Log.Last(trace.KindUnlocked)
		elapsed := last.At.Sub(setup.Spec.Start)
		bound := vtime.Scale(2*setup.Spec.DiamBound, setup.Spec.Delta)
		t.AddRow(f.name, f.d.NumVertices(), f.d.NumArcs(), len(setup.Spec.Leaders),
			setup.Spec.DiamBound,
			vtime.InDelta(elapsed, setup.Spec.Delta),
			vtime.InDelta(bound, setup.Spec.Delta),
			elapsed <= bound)
	}
	t.Notes = append(t.Notes, "the bound is met with equality on cycles: the worst case is tight")
	return t, nil
}

// E3SpaceComplexity measures Theorem 4.10: total bytes stored across all
// chains, against the O(|A|²) model (each of |A| contracts stores an
// O(|A|)-byte digraph).
func E3SpaceComplexity() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Theorem 4.10: on-chain storage vs O(|A|²)",
		Columns: []string{"digraph", "|A|", "|L|", "total bytes", "bytes/|A|", "bytes/|A|²"},
	}
	for _, f := range sweepFamilies() {
		_, res, err := conformingRun(f.d, core.Config{}, 3)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		m := f.d.NumArcs()
		t.AddRow(f.name, m, len(res.Spec.Leaders), res.StorageBytes,
			res.StorageBytes/m, fmt.Sprintf("%.1f", float64(res.StorageBytes)/float64(m*m)))
	}
	t.Notes = append(t.Notes,
		"bytes/|A| grows linearly with |A| (the per-contract digraph copy) while bytes/|A|² stays near-constant — the quadratic shape of Theorem 4.10")
	return t, nil
}

// E4Communication measures the abstract's communication claim: unlock
// traffic is O(|A|·|L|) — every arc carries one hashkey per lock.
func E4Communication() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Communication: unlock calls and bytes vs |A|·|L|",
		Columns: []string{"digraph", "|A|", "|L|", "|A|·|L|", "unlock calls", "unlock bytes", "bytes/(|A|·|L|)"},
	}
	for _, f := range sweepFamilies() {
		_, res, err := conformingRun(f.d, core.Config{}, 4)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		al := f.d.NumArcs() * len(res.Spec.Leaders)
		t.AddRow(f.name, f.d.NumArcs(), len(res.Spec.Leaders), al,
			res.Counters.UnlockCalls, res.Counters.UnlockBytes,
			fmt.Sprintf("%.1f", float64(res.Counters.UnlockBytes)/float64(al)))
	}
	t.Notes = append(t.Notes,
		"unlock calls = |A|·|L| exactly; per-call bytes vary with signature-path length, bounded by diam")
	return t, nil
}

// E5AdversarialMatrix summarizes Theorem 4.9 across the named deviation
// scenarios: conforming parties never end Underwater.
func E5AdversarialMatrix() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Theorem 4.9: named deviations — conforming parties never Underwater",
		Columns: []string{"scenario", "digraph", "deviators", "outcomes (per party)", "conforming safe"},
	}
	type scenario struct {
		name  string
		d     *digraph.Digraph
		kind  core.Kind
		apply func(*core.Setup, *conc.Runner)
	}
	scenarios := []scenario{
		{
			name: "halt before start",
			d:    graphgen.ThreeWay(),
			apply: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(1, adversary.HaltAt(core.NewConforming(), 0))
			},
		},
		{
			name: "halt mid Phase Two",
			d:    graphgen.ThreeWay(),
			apply: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(2, adversary.HaltAt(core.NewConforming(), s.Spec.Start.Add(vtime.Scale(2, s.Spec.Delta)).Add(5)))
			},
		},
		{
			name: "silent leader (griefing)",
			d:    graphgen.ThreeWay(),
			apply: func(s *core.Setup, r *conc.Runner) {
				idx, _ := s.Spec.LeaderIndex(0)
				r.SetBehavior(0, adversary.SilentLeader(idx))
			},
		},
		{
			name: "withhold all publications",
			d:    graphgen.TwoLeaderTriangle(),
			apply: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(2, adversary.WithholdPublications())
			},
		},
		{
			name: "never claim",
			d:    graphgen.ThreeWay(),
			apply: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(1, adversary.NoClaim())
			},
		},
		{
			name: "last-moment unlocks",
			d:    graphgen.ThreeWay(),
			apply: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(2, adversary.LastMomentUnlocker())
			},
		},
		{
			name: "two-member coalition, drops+shares",
			d:    graphgen.TwoLeaderTriangle(),
			apply: func(s *core.Setup, r *conc.Runner) {
				for v, b := range adversary.Coalition(adversary.CoalitionConfig{
					Setup: s, Members: []digraph.Vertex{0, 2}, Seed: 11, DropProb: 0.5, HaltProb: 0,
				}) {
					r.SetBehavior(v, b)
				}
			},
		},
	}
	for _, sc := range scenarios {
		cfg := core.Config{Kind: sc.kind, Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(5))}
		if cfg.Kind == 0 {
			cfg.Kind = core.KindGeneral
		}
		setup, err := core.NewSetup(sc.d, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		r := conc.NewRunner(setup)
		sc.apply(setup, r)
		res, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		safe := true
		for _, v := range res.Conforming {
			if res.Report.Of(v) == outcome.Underwater {
				safe = false
			}
		}
		deviators := sc.d.NumVertices() - len(res.Conforming)
		t.AddRow(sc.name, sc.d.String(), deviators, outcomeLine(setup.Spec, res), safe)
	}
	t.Notes = append(t.Notes, "deviators may end Underwater (their own fault) — conforming parties never do")
	return t, nil
}

func outcomeLine(spec *core.Spec, res *core.Result) string {
	s := ""
	for _, v := range spec.D.Vertices() {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%v", spec.PartyOf(v), res.Report.Of(v))
	}
	return s
}

// E6NonStronglyConnected demonstrates Lemma 3.4 / Theorem 3.5: on a
// non-strongly-connected digraph no uniform protocol is atomic — the X
// side free-rides structurally.
func E6NonStronglyConnected() (*Table, error) {
	d := graphgen.NotStronglyConnected(3, 3)
	setup, err := core.NewSetup(d, core.Config{AllowUnsafe: true, Rand: rand.New(rand.NewSource(8))})
	if err != nil {
		return nil, err
	}
	res, err := conc.NewRunner(setup).Run()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E6",
		Title:   "Lemma 3.4: non-strongly-connected digraph (X cycle → Y cycle, one bridge arc)",
		Columns: []string{"party", "side", "outcome"},
	}
	for _, v := range d.Vertices() {
		side := "X"
		if int(v) >= 3 {
			side = "Y"
		}
		t.AddRow(setup.Spec.PartyOf(v), side, res.Report.Of(v))
	}
	t.Notes = append(t.Notes,
		"X0 ends Discount without deviating at all: the digraph shape itself breaks uniformity, so such swaps are rejected by Validate (Theorem 3.5)")
	return t, nil
}

// E7LeadersNotFVS demonstrates Theorem 4.12: with leaders that are not a
// feedback vertex set, Phase One deadlocks on the leaderless cycle and
// every deployed contract refunds.
func E7LeadersNotFVS() (*Table, error) {
	d := graphgen.TwoLeaderTriangle()
	setup, err := core.NewSetup(d, core.Config{
		Leaders: []digraph.Vertex{0}, AllowUnsafe: true,
		Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(9)),
	})
	if err != nil {
		return nil, err
	}
	runner := conc.NewRunner(setup)
	res, err := runner.Run()
	if err != nil {
		return nil, err
	}
	published := len(res.Log.OfKind(trace.KindContractPublished))
	refunded := len(res.Log.OfKind(trace.KindRefunded))
	t := &Table{
		ID:      "E7",
		Title:   "Theorem 4.12: leaders {A} on the two-leader triangle (not an FVS)",
		Columns: []string{"arcs", "contracts published", "refunded", "unlocked", "all NoDeal", "waits-for cycle"},
	}
	allNoDeal := true
	for _, v := range d.Vertices() {
		if res.Report.Of(v) != outcome.NoDeal {
			allNoDeal = false
		}
	}
	cycle := setup.Spec.DeadlockCycle(runner.PublishedArcs())
	cycleStr := "none"
	if cycle != nil {
		cycleStr = ""
		for i, v := range cycle {
			if i > 0 {
				cycleStr += ">"
			}
			cycleStr += d.Name(v)
		}
	}
	t.AddRow(d.NumArcs(), published, refunded, len(res.Log.OfKind(trace.KindUnlocked)), allNoDeal, cycleStr)
	t.Notes = append(t.Notes,
		"the detected waits-for cycle is the theorem's proof object: no vertex on it ever reaches indegree zero, so Phase One stalls and every escrow refunds")
	return t, nil
}

// E8SingleLeaderStaircase reproduces Figure 6 (left) and Section 4.6: the
// timeout staircase on single-leader digraphs. The staircase this repo runs
// is the |L| = 1 row of the hashkey timelock ladder — the last tick a redeem
// is accepted is (diam + D(v, leader))·Δ after the start, one Δ under the
// figure's printed value, which the table shows beside it (see
// core.Spec.HTLCTimeout for why inclusive deadlines make the +1 redundant).
func E8SingleLeaderStaircase() (*Table, error) {
	d := graphgen.ThreeWay()
	setup, err := core.NewSetup(d, core.Config{
		Kind: core.KindSingleLeader, Delta: 10, Start: 100,
		Rand: rand.New(rand.NewSource(10)),
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E8",
		Title:   "Figure 6 / Section 4.6: single-leader timeout staircase, last redeem tick (diam + D(v, leader))·Δ",
		Columns: []string{"arc", "counterparty v", "D(v, leader)", "redeemable through (Δ after start)", "Figure 6: (diam + D + 1)·Δ"},
	}
	dist, _ := d.LongestPathsToSink(setup.Spec.Leaders[0])
	for id := 0; id < d.NumArcs(); id++ {
		arc := d.Arc(id)
		t.AddRow(
			fmt.Sprintf("%s->%s", d.Name(arc.Head), d.Name(arc.Tail)),
			d.Name(arc.Tail), dist[arc.Tail],
			vtime.InDelta(setup.Spec.HTLCTimeout(id).Add(-1).Sub(setup.Spec.Start), setup.Spec.Delta),
			vtime.InDelta(vtime.Scale(setup.Spec.DiamBound+dist[arc.Tail]+1, setup.Spec.Delta), setup.Spec.Delta))
	}
	res, err := conc.NewRunner(setup).Run()
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("protocol completes with plain HTLCs, no signatures: AllDeal=%v", res.Report.AllDeal()),
		"deadlines are inclusive and a party acts in the tick it observes, so the staircase is the hashkey ladder's single-leader row; Lemma 4.13 needs only the Δ gap between a follower's entering and leaving timeouts, which both columns have",
		"on the two-leader triangle no such staircase exists (Figure 6, right): every single-vertex deletion leaves a cycle — see E7")
	return t, nil
}
