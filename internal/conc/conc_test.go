package conc

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// tick is generous relative to goroutine scheduling noise so Δ ordering
// holds even on loaded CI machines.
const tick = 5 * time.Millisecond

func concSetup(t *testing.T, d *digraph.Digraph, cfg core.Config) *core.Setup {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(3))
	}
	setup, err := core.NewSetup(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

func TestConcurrentThreeWayAllDeal(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	res, err := Run(setup, nil, Config{Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("concurrent three-way swap should end AllDeal")
	}
	if !res.Registry.VerifyAllLedgers() {
		t.Error("ledgers must verify")
	}
}

func TestConcurrentTwoLeaderAllDeal(t *testing.T) {
	setup := concSetup(t, graphgen.TwoLeaderTriangle(), core.Config{})
	res, err := Run(setup, nil, Config{Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("concurrent two-leader swap should end AllDeal")
	}
}

func TestConcurrentSingleLeaderVariant(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Kind: core.KindSingleLeader})
	res, err := Run(setup, nil, Config{Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("concurrent single-leader swap should end AllDeal")
	}
}

func TestConcurrentBroadcast(t *testing.T) {
	setup := concSetup(t, graphgen.Cycle(5), core.Config{Broadcast: true})
	res, err := Run(setup, nil, Config{Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("concurrent broadcast swap should end AllDeal")
	}
}

// partyGoroutines reports how many goroutines started by Prepare are alive:
// a party has none, on either clock.
func partyGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by github.com/go-atomicswap/atomicswap/internal/conc.prepare")
}

// traceKinds collapses a log to the set of event kinds it contains.
func traceKinds(l *trace.Log) map[trace.Kind]int {
	kinds := make(map[trace.Kind]int)
	for _, ev := range l.Events() {
		kinds[ev.Kind]++
	}
	return kinds
}

// TestPacedFreeEquivalence runs the same 3-party swap on a clock paced by
// the wall and on a free one: outcomes must be identical per vertex and the
// runs must produce the same kinds of trace events (counts included — every
// publish/unlock/claim happens in both worlds). The delivery shape is the
// same too: neither run starts a goroutine of its own — deliveries execute
// inside scheduler events — and neither leaves one behind.
func TestPacedFreeEquivalence(t *testing.T) {
	prepare := func(cfg Config) *Running {
		setup := concSetup(t, graphgen.ThreeWay(), core.Config{Rand: rand.New(rand.NewSource(9))})
		rn, err := Prepare(setup, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := partyGoroutines(); n != 0 {
			t.Errorf("Prepare started %d party goroutines, want 0", n)
		}
		return rn
	}
	v := sched.NewVirtual(1)
	defer v.Close()
	free := prepare(Config{Scheduler: v}).Wait()
	paced := prepare(Config{Tick: tick}).Wait()
	if n := partyGoroutines(); n != 0 {
		t.Errorf("the runs left %d party goroutines behind, want 0", n)
	}

	if !paced.Report.AllDeal() || !free.Report.AllDeal() {
		t.Logf("paced:\n%s\nfree:\n%s", paced.Log.Render(), free.Log.Render())
		t.Fatal("both clocks must end AllDeal")
	}
	for _, vx := range []digraph.Vertex{0, 1, 2} {
		if p, f := paced.Report.Of(vx), free.Report.Of(vx); p != f {
			t.Errorf("vertex %d: paced %v, free %v", vx, p, f)
		}
	}
	pk, fk := traceKinds(paced.Log), traceKinds(free.Log)
	for kind, n := range pk {
		if fk[kind] != n {
			t.Errorf("kind %v: paced %d events, free %d\npaced:\n%s\nfree:\n%s",
				kind, n, fk[kind], paced.Log.Render(), free.Log.Render())
		}
	}
	for kind := range fk {
		if _, ok := pk[kind]; !ok {
			t.Errorf("kind %v only in the free run", kind)
		}
	}
}

// TestVirtualTimeIsCPUBound: under the virtual scheduler a swap with a
// huge Δ — hours of wall time in real mode — completes in the time the
// callbacks take to run.
func TestVirtualTimeIsCPUBound(t *testing.T) {
	v := sched.NewVirtual(1)
	defer v.Close()
	setup := concSetup(t, graphgen.Cycle(4), core.Config{Delta: 100_000})
	start := time.Now()
	res, err := Run(setup, nil, Config{Scheduler: v})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("virtual run took %v of wall time", elapsed)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("virtual swap should end AllDeal")
	}
}

// TestEarlyExitSkipsGrace: once every arc has settled, the teardown is
// immediate — the run no longer pays the full-Δ grace sleep it used to.
// The run's own scheduler tells us when it exited; the ledger tells us
// when the last transfer landed; the gap must be far under one Δ. OnDone
// receives the result Wait returns.
// settleFunc adapts a function to a Settler.
type settleFunc func(*Result)

func (f settleFunc) Settle(r *Result) { f(r) }

func TestEarlyExitSkipsGrace(t *testing.T) {
	const (
		delta    = 40
		wallTick = 5 * time.Millisecond
	)
	s := sched.NewPaced(1, wallTick)
	defer s.Close()
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Delta: delta})
	var done *Result
	res, err := Run(setup, nil, Config{Scheduler: s, EarlyExit: true, OnDone: settleFunc(func(r *Result) { done = r })})
	exitTick := s.Now()
	if err != nil {
		t.Fatal(err)
	}
	if done != res {
		t.Fatalf("OnDone got %p, Wait returned %p", done, res)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("early-exit swap should end AllDeal")
	}
	var lastTransfer vtime.Ticks
	for _, name := range res.Registry.Names() {
		for _, rec := range res.Registry.Chain(name).Records() {
			if rec.Kind == chain.NoteTransfer && rec.At > lastTransfer {
				lastTransfer = rec.At
			}
		}
	}
	if lastTransfer == 0 {
		t.Fatal("no transfers recorded")
	}
	// The old teardown exited at lastTransfer + Δ (a full grace sleep);
	// the new one tears down as the final settle lands. Half a Δ of slack
	// absorbs scheduler jitter on both sides.
	if gap := exitTick.Sub(lastTransfer); gap >= delta/2 {
		t.Fatalf("teardown lagged the last transfer by %d ticks (Δ=%d): grace not skipped", gap, delta)
	}
	if exitTick >= setup.Spec.Horizon() {
		t.Fatalf("early exit ran to the horizon (%d >= %d)", exitTick, setup.Spec.Horizon())
	}
}

// TestOnDoneFiresOnce: OnDone runs exactly once, inside the horizon delivery,
// with the result Wait returns. Without EarlyExit that delivery sits at the
// padded horizon; with it, the last arc's resolution schedules a second one
// at its own tick, and the first is stopped with the run's other timers: the
// run leaves no event queued, and driving the clock past the padded horizon
// fires nothing more.
func TestOnDoneFiresOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		earlyExit bool
	}{{"horizon", false}, {"early-exit", true}} {
		t.Run(tc.name, func(t *testing.T) {
			v := sched.NewVirtual(1)
			defer v.Close()
			setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
			var (
				calls    int
				done     *Result
				doneTick vtime.Ticks
			)
			res, err := Run(setup, nil, Config{Scheduler: v, EarlyExit: tc.earlyExit, OnDone: settleFunc(func(r *Result) {
				calls++
				done, doneTick = r, v.Now()
			})})
			if err != nil {
				t.Fatal(err)
			}
			if done != res {
				t.Fatalf("OnDone got %p, Wait returned %p", done, res)
			}
			if !res.Report.AllDeal() {
				t.Log("\n" + res.Log.Render())
				t.Fatal("swap should end AllDeal")
			}
			if n := v.Pending(); n != 0 {
				t.Fatalf("the finished run left %d events queued", n)
			}
			padded := setup.Spec.Horizon().Add(vtime.Scale(horizonPad, setup.Spec.Delta))
			v.RunUntil(padded + 1)
			if calls != 1 {
				t.Fatalf("OnDone ran %d times, want 1", calls)
			}
			switch {
			case !tc.earlyExit && doneTick != padded:
				t.Fatalf("OnDone at tick %d, want the padded horizon %d", doneTick, padded)
			case tc.earlyExit && doneTick != res.SettleTick:
				t.Fatalf("OnDone at tick %d, want the last arc's resolution %d", doneTick, res.SettleTick)
			}
		})
	}
}

func TestConcurrentHaltedPartySafe(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	behaviors := map[digraph.Vertex]core.Behavior{
		1: adversary.HaltAt(core.NewConforming(), 0),
	}
	res, err := Run(setup, behaviors, Config{Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	// Conforming parties (0 and 2) must not be Underwater; with Bob dead
	// from the start everyone should simply refund to NoDeal.
	for _, v := range []digraph.Vertex{0, 2} {
		if got := res.Report.Of(v); got == outcome.Underwater {
			t.Log("\n" + res.Log.Render())
			t.Fatalf("conforming %d Underwater in concurrent run", v)
		}
	}
	if res.Report.AllDeal() {
		t.Error("swap should not complete with a dead party")
	}
}
