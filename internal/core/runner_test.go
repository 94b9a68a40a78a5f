package core

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// newTestSetup builds a deterministic setup over d.
func newTestSetup(t *testing.T, d *digraph.Digraph, cfg Config) *Setup {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	setup, err := NewSetup(d, cfg)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	return setup
}

// run executes a fresh conforming run and returns the result.
func run(t *testing.T, setup *Setup) *Result {
	t.Helper()
	res, err := NewRunner(setup, Options{}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestThreeWayAllConformingDeal(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
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
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{Delta: 10, Start: 100})
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
	setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{})
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
			setup := newTestSetup(t, f.d, Config{})
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
	setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{})
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
		setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{Rand: rand.New(rand.NewSource(5))})
		res := run(t, setup)
		return res.Log.Render()
	}
	if mk() != mk() {
		t.Error("two identical runs should produce identical traces")
	}
}

func TestRunnerSingleUse(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	r := NewRunner(setup, Options{})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

// TestRunnerStopsItsScheduler: the runner's dispatcher goroutine is gone
// when Run returns — after a full run, and on the asset-registration
// error path, which returns before any event was queued.
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
	run(t, newTestSetup(t, graphgen.ThreeWay(), Config{}))
	if n := dispatchers(); n != 0 {
		t.Fatalf("a finished run left %d dispatcher goroutines behind", n)
	}

	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	r := NewRunner(setup, Options{})
	aa := setup.Spec.Assets[0]
	if err := r.Registry().Chain(aa.Chain).RegisterAsset(chain.Asset{ID: aa.Asset, Amount: aa.Amount}, "squatter"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, chain.ErrDuplicateAsset) {
		t.Fatalf("Run over a pre-registered asset: err = %v, want ErrDuplicateAsset", err)
	}
	if n := dispatchers(); n != 0 {
		t.Fatalf("a failed run left %d dispatcher goroutines behind", n)
	}
}

func TestSingleLeaderKindConforming(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{Kind: KindSingleLeader})
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
	setup := newTestSetup(t, d, Config{Kind: KindSingleLeader, Leaders: []digraph.Vertex{center}})
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
	plain := newTestSetup(t, d, Config{Rand: rand.New(rand.NewSource(2))})
	resPlain := run(t, plain)

	bc := newTestSetup(t, d, Config{Broadcast: true, Rand: rand.New(rand.NewSource(2))})
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
	setup := newTestSetup(t, graphgen.Cycle(5), Config{
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
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	res := run(t, setup)
	for _, v := range setup.Spec.D.Vertices() {
		if res.Report.Of(v) != outcome.Deal {
			t.Errorf("vertex %d = %v, want Deal", v, res.Report.Of(v))
		}
	}
}
