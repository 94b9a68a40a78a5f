package conc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// run executes a fresh conforming run and returns the result.
func run(t *testing.T, setup *core.Setup) *core.Result {
	t.Helper()
	res, err := NewRunner(setup).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestThreeWayAllConformingDeal(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	res := run(t, setup)

	if !res.Report.AllDeal() {
		for _, v := range setup.Spec.D.Vertices() {
			t.Logf("%s: %v", setup.Spec.PartyOf(v), res.Report.Of(v))
		}
		t.Log("\n" + res.Log.Render())
		t.Fatal("all-conforming three-way swap must end AllDeal (Theorem 4.7)")
	}
	for id := 0; id < 3; id++ {
		if !res.Triggered[id] {
			t.Errorf("arc %d not triggered", id)
		}
	}
	// Theorem 4.7: triggered within 2·diam·Δ of the start.
	bound := setup.Spec.Start.Add(vtime.Scale(2*setup.Spec.DiamBound, setup.Spec.Delta))
	last, ok := res.Log.Last(trace.KindUnlocked)
	if !ok {
		t.Fatal("no unlock events")
	}
	if last.At.After(bound) {
		t.Errorf("last unlock at %d, bound %d", last.At, bound)
	}
	if !res.Registry.VerifyAllLedgers() {
		t.Error("ledgers must verify")
	}
}

func TestThreeWayTimeline(t *testing.T) {
	// Figures 1 and 2: Alice deploys ahead so her contract is confirmed at
	// T; Bob's lands at T, Carol's at T+Δ; then unlocks at T+2Δ (Alice's
	// own, exactly at her degenerate hashkey's deadline), T+3Δ (Carol),
	// T+4Δ (Bob) — finishing at exactly 2·diam·Δ, Theorem 4.7's bound.
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	res := run(t, setup)

	pubs := res.Log.OfKind(trace.KindContractPublished)
	if len(pubs) != 3 {
		t.Fatalf("publishes = %d, want 3", len(pubs))
	}
	wantPub := map[int]vtime.Ticks{0: 90, 1: 100, 2: 110}
	for _, ev := range pubs {
		if ev.At != wantPub[ev.Arc] {
			t.Errorf("arc %d published at %d, want %d", ev.Arc, ev.At, wantPub[ev.Arc])
		}
	}
	unlocks := res.Log.OfKind(trace.KindUnlocked)
	if len(unlocks) != 3 {
		t.Fatalf("unlocks = %d, want 3", len(unlocks))
	}
	// Alice (leader) unlocks her entering arc 2 at 120 (Phase One done for
	// her); Carol sees it at 130 and unlocks arc 1; Bob at 140 unlocks arc 0.
	wantUnlock := map[int]vtime.Ticks{2: 120, 1: 130, 0: 140}
	for _, ev := range unlocks {
		if ev.At != wantUnlock[ev.Arc] {
			t.Errorf("arc %d unlocked at %d, want %d", ev.Arc, ev.At, wantUnlock[ev.Arc])
		}
	}
	if !res.Report.AllDeal() {
		t.Error("want AllDeal")
	}
}

func TestTwoLeaderTriangleConforming(t *testing.T) {
	setup := concSetup(t, graphgen.TwoLeaderTriangle(), core.Config{})
	if len(setup.Spec.Leaders) != 2 {
		t.Fatalf("leaders = %v, want 2 leaders", setup.Spec.Leaders)
	}
	res := run(t, setup)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("two-leader triangle must end AllDeal")
	}
	// Every arc has two hashlocks; 6 arcs × 2 locks = 12 unlock events.
	if got := len(res.Log.OfKind(trace.KindUnlocked)); got != 12 {
		t.Errorf("unlock events = %d, want 12", got)
	}
}

func TestCompletionBoundAcrossFamilies(t *testing.T) {
	families := []struct {
		name string
		d    *digraph.Digraph
	}{
		{"cycle4", graphgen.Cycle(4)},
		{"cycle7", graphgen.Cycle(7)},
		{"clique4", graphgen.Clique(4)},
		{"clique5", graphgen.Clique(5)},
		{"bidir5", graphgen.BidirCycle(5)},
		{"flower3x2", graphgen.Flower(3, 2)},
		{"random8", graphgen.RandomStronglyConnected(8, 0.3, 11)},
		{"random10", graphgen.RandomStronglyConnected(10, 0.25, 12)},
	}
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			setup := concSetup(t, f.d, core.Config{})
			res := run(t, setup)
			if !res.Report.AllDeal() {
				t.Log("\n" + res.Log.Render())
				t.Fatalf("%s: all-conforming run must end AllDeal", f.name)
			}
			bound := setup.Spec.Start.Add(vtime.Scale(2*setup.Spec.DiamBound, setup.Spec.Delta))
			if last, ok := res.Log.Last(trace.KindUnlocked); ok && last.At.After(bound) {
				t.Errorf("last unlock at %d exceeds 2·diam·Δ bound %d", last.At, bound)
			}
			if !res.Registry.VerifyAllLedgers() {
				t.Error("ledger verification failed")
			}
		})
	}
}

func TestAssetsConserved(t *testing.T) {
	setup := concSetup(t, graphgen.TwoLeaderTriangle(), core.Config{})
	res := run(t, setup)
	// Every asset ends owned by its arc's counterparty.
	for id := 0; id < setup.Spec.D.NumArcs(); id++ {
		aa := setup.Spec.Assets[id]
		owner, ok := res.Registry.Chain(aa.Chain).OwnerOf(aa.Asset)
		if !ok {
			t.Fatalf("asset %s disappeared", aa.Asset)
		}
		want := setup.Spec.PartyOf(setup.Spec.D.Arc(id).Tail)
		if owner.Party != want {
			t.Errorf("asset %s owned by %v, want %s", aa.Asset, owner, want)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() string {
		setup := concSetup(t, graphgen.TwoLeaderTriangle(), core.Config{Rand: rand.New(rand.NewSource(5))})
		res := run(t, setup)
		return res.Log.Render()
	}
	if mk() != mk() {
		t.Error("two identical runs should produce identical traces")
	}
}

func TestRunnerSingleUse(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	r := NewRunner(setup)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

// TestRunnerStopsItsScheduler: the runner's dispatcher goroutine is gone
// when Run returns — after a full run, and on the asset-verification error
// path, where Prepare fails before any event was queued.
func TestRunnerStopsItsScheduler(t *testing.T) {
	// Run returns once the dispatcher has signalled its exit, a few
	// instructions before the goroutine is gone: give it a moment.
	dispatchers := func() int {
		n := 0
		for i := 0; i < 2000; i++ {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			if n = strings.Count(string(buf), "sched.(*Virtual).loop("); n == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return n
	}
	run(t, concSetup(t, graphgen.ThreeWay(), core.Config{}))
	if n := dispatchers(); n != 0 {
		t.Fatalf("a finished run left %d dispatcher goroutines behind", n)
	}

	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	r := NewRunner(setup)
	aa := setup.Spec.Assets[0]
	if err := r.Registry().Chain(aa.Chain).RegisterAsset(chain.Asset{ID: aa.Asset, Amount: aa.Amount}, "squatter"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("Run over an asset someone else owns: want an error")
	}
	if n := dispatchers(); n != 0 {
		t.Fatalf("a failed run left %d dispatcher goroutines behind", n)
	}

	// A run handed no scheduler builds a paced one from Config.Tick, and
	// owns it the same way: Wait closes it, and so does a failed Prepare.
	if _, err := Run(concSetup(t, graphgen.ThreeWay(), core.Config{}), nil, Config{Tick: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if n := dispatchers(); n != 0 {
		t.Fatalf("a finished run on its own scheduler left %d dispatcher goroutines behind", n)
	}
	if _, err := Run(setup, nil, Config{Tick: time.Millisecond, Registry: r.Registry()}); err == nil {
		t.Fatal("Run over an asset someone else owns: want an error")
	}
	if n := dispatchers(); n != 0 {
		t.Fatalf("a failed run on its own scheduler left %d dispatcher goroutines behind", n)
	}
}

func TestSingleLeaderKindConforming(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Kind: core.KindSingleLeader})
	res := run(t, setup)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("single-leader protocol must end AllDeal on the three-cycle")
	}
	// No hashkey unlock events: everything is classic redeem.
	if got := len(res.Log.OfKind(trace.KindUnlocked)); got != 0 {
		t.Errorf("unlock events = %d, want 0 under the HTLC variant", got)
	}
}

func TestSingleLeaderFlower(t *testing.T) {
	d := graphgen.Flower(3, 2)
	center, _ := d.VertexByName("L")
	setup := concSetup(t, d, core.Config{Kind: core.KindSingleLeader, Leaders: []digraph.Vertex{center}})
	res := run(t, setup)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("flower swap must end AllDeal")
	}
}

func TestBroadcastOptimization(t *testing.T) {
	// With the broadcast chain, Phase Two completes in constant time: the
	// last unlock lands at most 2Δ after the first reveal, regardless of
	// diameter.
	d := graphgen.Cycle(8)
	plain := concSetup(t, d, core.Config{Rand: rand.New(rand.NewSource(2))})
	resPlain := run(t, plain)

	bc := concSetup(t, d, core.Config{Broadcast: true, Rand: rand.New(rand.NewSource(2))})
	resBC := run(t, bc)

	if !resPlain.Report.AllDeal() || !resBC.Report.AllDeal() {
		t.Fatal("both runs must end AllDeal")
	}
	lastPlain, _ := resPlain.Log.Last(trace.KindUnlocked)
	lastBC, _ := resBC.Log.Last(trace.KindUnlocked)
	if !lastBC.At.Before(lastPlain.At) {
		t.Errorf("broadcast run should finish Phase Two earlier: %d vs %d", lastBC.At, lastPlain.At)
	}
	reveal, ok := resBC.Log.First(trace.KindSecretRevealed)
	if !ok {
		t.Fatal("no reveal event")
	}
	if lastBC.At.Sub(reveal.At) > 2*vtime.Duration(bc.Spec.Delta) {
		t.Errorf("broadcast Phase Two took %d ticks, want ≤ 2Δ", lastBC.At.Sub(reveal.At))
	}
}

func TestBroadcastRepresentationsHitSeededCache(t *testing.T) {
	// Followers seed their own extension of a verified key into the spec
	// cache (learnKey), so the contracts verifying those re-presentations
	// never take even the one-signature fast path: after a broadcast run
	// every extension verification is a pure cache hit.
	cache := hashkey.NewVerifyCache(0)
	setup := concSetup(t, graphgen.Cycle(5), core.Config{
		Broadcast: true, Cache: cache, Rand: rand.New(rand.NewSource(4)),
	})
	res := run(t, setup)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("broadcast run must end AllDeal")
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits in a broadcast run: %+v", st)
	}
	if st.Fastpath != 0 {
		t.Errorf("re-presentation fell back to the fast path despite seeding: %+v", st)
	}
}

func TestOutcomeReportClasses(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	res := run(t, setup)
	for _, v := range setup.Spec.D.Vertices() {
		if res.Report.Of(v) != outcome.Deal {
			t.Errorf("vertex %d = %v, want Deal", v, res.Report.Of(v))
		}
	}
}

func TestNopBehaviorIsInert(t *testing.T) {
	// core.NopBehavior as every party: nothing ever happens, the runner
	// terminates at its horizon with all assets untouched.
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	r := NewRunner(setup)
	for _, v := range setup.Spec.D.Vertices() {
		r.SetBehavior(v, core.NopBehavior{})
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(res.Triggered, true) {
		t.Errorf("nop parties triggered arcs: %v", res.Triggered)
	}
	for id := 0; id < 3; id++ {
		aa := setup.Spec.Assets[id]
		owner, _ := res.Registry.Chain(aa.Chain).OwnerOf(aa.Asset)
		want := setup.Spec.PartyOf(setup.Spec.D.Arc(id).Head)
		if owner != chain.ByParty(want) {
			t.Errorf("asset %s moved to %v without any protocol action", aa.Asset, owner)
		}
	}
}

// TestUnlockTrafficIsArcTimesLeaders pins the communication-complexity
// shape on conforming runs: exactly |A|·|L| unlock calls.
func TestUnlockTrafficIsArcTimesLeaders(t *testing.T) {
	for _, d := range []*digraph.Digraph{
		graphgen.ThreeWay(),
		graphgen.TwoLeaderTriangle(),
		graphgen.Clique(4),
		graphgen.BidirCycle(5),
	} {
		setup := concSetup(t, d, core.Config{})
		res := run(t, setup)
		want := d.NumArcs() * len(setup.Spec.Leaders)
		if res.Counters.UnlockCalls != want {
			t.Errorf("%v: unlock calls = %d, want |A|·|L| = %d",
				d, res.Counters.UnlockCalls, want)
		}
		if res.Counters.FailedCalls != 0 {
			t.Errorf("%v: conforming run made %d failed calls", d, res.Counters.FailedCalls)
		}
	}
}

func TestRunnerAccessors(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	r := NewRunner(setup)
	if r.Log() == nil || r.Registry() == nil {
		t.Fatal("accessors should be non-nil")
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Log != r.Log() {
		t.Error("result log should be the runner log")
	}
	if res.Timing.DeployDelta() == "" || res.Timing.TotalDelta() == "" {
		t.Error("timing should render")
	}
}

// TestNewSetupReusesKeyring is the clearing-engine contract: consecutive
// setups over the same parties perform keygen only once, the directories
// agree, and runs still complete.
func TestNewSetupReusesKeyring(t *testing.T) {
	k := core.NewKeyring(rand.New(rand.NewSource(9)))
	d := graphgen.ThreeWay()
	cfg := core.Config{Rand: rand.New(rand.NewSource(1)), Keyring: k}
	s1, err := core.NewSetup(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != d.NumVertices() {
		t.Fatalf("keyring holds %d identities, want %d", k.Len(), d.NumVertices())
	}
	cfg2 := core.Config{Rand: rand.New(rand.NewSource(2)), Keyring: k}
	s2, err := core.NewSetup(d, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != d.NumVertices() {
		t.Fatalf("second setup minted identities: %d", k.Len())
	}
	for v := range s1.Signers {
		if !bytes.Equal(s1.Spec.Keys[s1.Signers[v].Vertex()], s2.Spec.Keys[s2.Signers[v].Vertex()]) {
			t.Errorf("vertex %d: directories disagree across setups", v)
		}
	}
	// The persistent identities must actually run the protocol.
	res, err := NewRunner(s2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Fatalf("keyring-backed swap not AllDeal:\n%s", res.Log.Render())
	}
}

func TestClearBarterRing(t *testing.T) {
	// A five-party barter ring with one party giving two assets (multiple
	// leaving arcs), kidney-exchange style.
	offers := []core.Offer{
		{Party: "p1", Give: []core.ProposedTransfer{{To: "p2", Chain: "c1", Asset: "a1", Amount: 1}}},
		{Party: "p2", Give: []core.ProposedTransfer{{To: "p3", Chain: "c2", Asset: "a2", Amount: 1}}},
		{Party: "p3", Give: []core.ProposedTransfer{
			{To: "p4", Chain: "c3", Asset: "a3", Amount: 1},
			{To: "p1", Chain: "c5", Asset: "a5", Amount: 1},
		}},
		{Party: "p4", Give: []core.ProposedTransfer{{To: "p5", Chain: "c4", Asset: "a4", Amount: 1}}},
		{Party: "p5", Give: []core.ProposedTransfer{{To: "p1", Chain: "c6", Asset: "a6", Amount: 1}}},
	}
	setup, err := core.Clear(offers, core.Config{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatalf("Clear: %v", err)
	}
	res, err := NewRunner(setup).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Error("barter ring should end AllDeal")
	}
}

func TestSetupWithExplicitAssets(t *testing.T) {
	assets := []core.ArcAsset{
		{Chain: "altcoin", Asset: "alt", Amount: 100},
		{Chain: "bitcoin", Asset: "btc", Amount: 1},
		{Chain: "titles", Asset: "cadillac", Amount: 1},
	}
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Assets: assets})
	res := run(t, setup)
	if !res.Report.AllDeal() {
		t.Fatal("explicit-asset swap should end AllDeal")
	}
	owner, _ := res.Registry.Chain("titles").OwnerOf("cadillac")
	if owner != chain.ByParty("Alice") {
		t.Errorf("cadillac owner = %v, want Alice", owner)
	}
}

func TestRecurrentSwaps(t *testing.T) {
	d := graphgen.ThreeWay()
	rnd := rand.New(rand.NewSource(9))
	with, err := RunRecurrent(d, 3, true, rnd)
	if err != nil {
		t.Fatalf("RunRecurrent(piggyback): %v", err)
	}
	rnd2 := rand.New(rand.NewSource(9))
	without, err := RunRecurrent(d, 3, false, rnd2)
	if err != nil {
		t.Fatalf("RunRecurrent(no piggyback): %v", err)
	}
	for i, r := range with.Rounds {
		if !r.AllDeal {
			t.Errorf("piggyback round %d not AllDeal", i)
		}
	}
	if with.TotalTicks >= without.TotalTicks {
		t.Errorf("piggybacked rounds (%d ticks) should beat re-clearing (%d ticks)",
			with.TotalTicks, without.TotalTicks)
	}
	if _, err := RunRecurrent(d, 0, true, rnd); err == nil {
		t.Error("zero rounds should error")
	}
}

func TestMultigraphSwap(t *testing.T) {
	// Section 5: parallel arcs — Alice sends three assets to Bob, Bob one
	// back. Every arc needs its own contract and all must trigger.
	setup := concSetup(t, graphgen.MultiArcPair(3), core.Config{})
	res := run(t, setup)
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("multigraph swap should end AllDeal")
	}
	for id := 0; id < 4; id++ {
		if !res.Triggered[id] {
			t.Errorf("arc %d not triggered", id)
		}
	}
}

// TestSingleLeaderShapesAllDeal runs the conforming single-leader protocol
// over core's Section 4.6 corpus (rings, flowers, seeded leader-plus-DAG
// shapes) on the Runner — every delivery takes the full Δ, the schedule on
// which the shared ladder has no slack left — and requires the all-Deal
// outcome with nothing refunded.
func TestSingleLeaderShapesAllDeal(t *testing.T) {
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
	for name, d := range shapes {
		setup := concSetup(t, d, core.Config{Kind: core.KindByLeaders})
		res := run(t, setup)
		if !res.Report.AllDeal() {
			t.Errorf("%s: conforming single-leader run did not end all-Deal: %v", name, res.Report)
		}
	}
}

func TestWaitsForDetectsTheorem412Deadlock(t *testing.T) {
	// Leaders {A} on the two-leader triangle: B and C wait for each
	// other. The cycle is present from the initial state and survives
	// the leader's publications — the Theorem 4.12 argument, executable.
	setup, err := core.NewSetup(graphgen.TwoLeaderTriangle(), core.Config{
		Leaders:     []digraph.Vertex{0},
		AllowUnsafe: true,
		Rand:        quickRand(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	cyc := setup.Spec.DeadlockCycle(nil)
	if cyc == nil {
		t.Fatal("expected a waits-for cycle with non-FVS leaders")
	}
	// The cycle is exactly the leaderless 2-cycle {B, C}.
	inCycle := map[digraph.Vertex]bool{}
	for _, v := range cyc {
		inCycle[v] = true
	}
	if !inCycle[1] || !inCycle[2] || inCycle[0] {
		t.Errorf("cycle = %v, want exactly {B, C}", cyc)
	}

	// Run the protocol: the runner's final published set still shows the
	// same permanent deadlock.
	r := NewRunner(setup)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if cyc := setup.Spec.DeadlockCycle(r.PublishedArcs()); cyc == nil {
		t.Error("deadlock should persist after the leader's publications")
	}
}

func TestWaitsForCleanAfterConformingRun(t *testing.T) {
	setup := concSetup(t, graphgen.TwoLeaderTriangle(), core.Config{})
	r := NewRunner(setup)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if w := setup.Spec.WaitsFor(r.PublishedArcs()); w.NumArcs() != 0 {
		t.Errorf("conforming run should leave no one waiting, got %v", w)
	}
}

func quickRand(t *testing.T) *rand.Rand {
	t.Helper()
	return rand.New(rand.NewSource(77))
}
