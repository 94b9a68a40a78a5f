package conc

import (
	"math/rand"
	"runtime"
	"slices"
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

// tick is the paced side of TestPacedFreeEquivalence. A callback sees the
// tick it was dispatched at however late it runs, so the tick sets how long
// the run takes, not what it does.
const tick = 5 * time.Millisecond

// freeClock is a one-worker free scheduler, closed when the test ends: the
// engine's kind of clock, so a run on it follows the quarter-Δ delivery rule.
func freeClock(t *testing.T) *sched.Virtual {
	v := sched.NewVirtual(1)
	t.Cleanup(v.Close)
	return v
}

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
	res, err := Run(setup, nil, Config{Scheduler: freeClock(t)})
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
	res, err := Run(setup, nil, Config{Scheduler: freeClock(t)})
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
	res, err := Run(setup, nil, Config{Scheduler: freeClock(t)})
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
	res, err := Run(setup, nil, Config{Scheduler: freeClock(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Log("\n" + res.Log.Render())
		t.Fatal("concurrent broadcast swap should end AllDeal")
	}
}

// TestRunNeedsAScheduler: a run never builds a clock of its own.
func TestRunNeedsAScheduler(t *testing.T) {
	if _, err := Run(concSetup(t, graphgen.ThreeWay(), core.Config{}), nil, Config{}); err == nil {
		t.Fatal("Run without a scheduler: want an error")
	}
}

// partyGoroutines reports how many goroutines started by Prepare are alive:
// a party has none, on either clock.
func partyGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by github.com/go-atomicswap/atomicswap/internal/conc.prepare")
}

// TestPacedFreeEquivalence runs the same 3-party swap on a clock paced by
// the wall (sched.NewPaced, as a paced engine builds) and on a free one,
// the paced one prepared after its wall has run ahead, and on both a host
// stall: one callback early in the run sleeps ten ticks, so on the wall
// everything after it runs late. A paced clock sets when an event runs,
// never which tick it sees, so the two traces are equal event for event,
// ticks taken relative to the spec's start. The delivery shape is the same
// too: neither run starts a goroutine of its own — deliveries execute
// inside scheduler events — and neither leaves one behind.
func TestPacedFreeEquivalence(t *testing.T) {
	run := func(s *sched.Virtual) (*Result, []trace.Event) {
		setup := concSetup(t, graphgen.ThreeWay(), core.Config{Rand: rand.New(rand.NewSource(9))})
		release := s.Hold()
		rn, err := Prepare(setup, nil, Config{Scheduler: s, StartOffset: 25})
		if err != nil {
			t.Fatal(err)
		}
		s.At(setup.Spec.Start+2, func() { time.Sleep(10 * tick) })
		release()
		if n := partyGoroutines(); n != 0 {
			t.Errorf("Prepare started %d party goroutines, want 0", n)
		}
		res := rn.Wait()
		evs := res.Log.Events()
		for i := range evs {
			evs[i].At -= setup.Spec.Start
		}
		return res, evs
	}
	wall := sched.NewPaced(1, tick)
	defer wall.Close()
	free, fe := run(freeClock(t))
	time.Sleep(20 * tick)
	paced, pe := run(wall)
	if n := partyGoroutines(); n != 0 {
		t.Errorf("the runs left %d party goroutines behind, want 0", n)
	}

	if !paced.Report.AllDeal() || !free.Report.AllDeal() {
		t.Logf("paced:\n%s\nfree:\n%s", paced.Log.Render(), free.Log.Render())
		t.Fatal("both clocks must end AllDeal")
	}
	if !slices.Equal(pe, fe) {
		t.Fatalf("paced and free traces differ, relative to the start:\npaced:\n%s\nfree:\n%s",
			paced.Log.Render(), free.Log.Render())
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

// settleFunc adapts a function to a Settler.
type settleFunc func(*Result)

func (f settleFunc) Settle(r *Result) { f(r) }

// TestEarlyExitSkipsGrace: once every arc has settled, the teardown is
// immediate — the run no longer pays the full-Δ grace sleep it used to.
// The run's own scheduler tells us when it exited; the ledger tells us
// when the last transfer landed; the gap must be far under one Δ. OnDone
// receives the result Wait returns.
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

// TestQuietRunEndsBeforeHorizon: an arc whose party withholds its
// contract never resolves, so an EarlyExit run cannot end at its last
// resolution. Once the conforming parties have refunded and their last
// delivery has fired, no party acts again: the run ends at that quiet tick,
// below spec.Horizon(), with the report, triggers and escrow spans of the
// same run played to its padded horizon, and leaves no event queued. Over
// a chain with a confirmation depth, finality and revert events reach the
// run outside its own deliveries, so it still plays to its horizon.
func TestQuietRunEndsBeforeHorizon(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    func() *digraph.Digraph
		kind core.Kind
	}{{"ring-3", ring3, core.KindByLeaders}, {"clique-4", clique4, core.KindGeneral}} {
		t.Run(tc.name, func(t *testing.T) {
			type ended struct {
				res      *Result
				spec     *core.Spec
				doneTick vtime.Ticks
				queued   int
			}
			run := func(earlyExit bool, depth vtime.Duration) ended {
				v := sched.NewVirtual(1)
				defer v.Close()
				setup := concSetup(t, tc.d(), core.Config{Kind: tc.kind})
				var e ended
				cfg := Config{Scheduler: v, EarlyExit: earlyExit, OnDone: settleFunc(func(*Result) { e.doneTick = v.Now() })}
				if depth > 0 {
					cfg.Registry = chain.NewRegistry(v)
					if err := cfg.Registry.SetCommitmentModels(func(string) chain.CommitmentModel {
						return chain.Depth{K: depth}
					}); err != nil {
						t.Fatal(err)
					}
				}
				res, err := Run(setup, map[digraph.Vertex]core.Behavior{1: adversary.WithholdPublications()}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.res, e.spec, e.queued = res, setup.Spec, v.Pending()
				return e
			}
			full, quiet := run(false, 0), run(true, 0)
			padded := full.spec.Horizon().Add(vtime.Scale(horizonPad, full.spec.Delta))
			if full.res.SettleTick != padded {
				t.Fatalf("played to its horizon, the run settled at %d, want the padded horizon %d", full.res.SettleTick, padded)
			}
			if !slices.Equal(quiet.res.Report, full.res.Report) || !slices.Equal(quiet.res.Triggered, full.res.Triggered) ||
				!slices.Equal(quiet.res.Escrows, full.res.Escrows) {
				t.Fatalf("quiet exit changed the result:\n report %v triggered %v escrows %v\nagainst\n report %v triggered %v escrows %v",
					quiet.res.Report, quiet.res.Triggered, quiet.res.Escrows, full.res.Report, full.res.Triggered, full.res.Escrows)
			}
			if len(quiet.res.Escrows) == 0 {
				t.Fatal("no conforming party escrowed anything")
			}
			for _, v := range []digraph.Vertex{0, 2} {
				if c := quiet.res.Report.Of(v); c != outcome.NoDeal {
					t.Fatalf("conforming party %d ended %s, want NoDeal", v, c)
				}
			}
			var lastRecord vtime.Ticks
			for _, name := range quiet.res.Registry.Names() {
				for _, rec := range quiet.res.Registry.Chain(name).Records() {
					lastRecord = max(lastRecord, rec.At)
				}
			}
			settle := quiet.res.SettleTick
			if settle != quiet.doneTick || settle <= lastRecord || settle > lastRecord.Add(vtime.Duration(quiet.spec.Delta)) ||
				settle >= quiet.spec.Horizon() {
				t.Fatalf("quiet run settled at %d and ended at %d; its last record is at %d, Δ %d, horizon %d",
					settle, quiet.doneTick, lastRecord, quiet.spec.Delta, quiet.spec.Horizon())
			}
			if quiet.queued != 0 {
				t.Fatalf("the quiet run left %d events queued", quiet.queued)
			}

			deep := run(true, 2)
			padded = deep.spec.Horizon().Add(vtime.Scale(horizonPad, deep.spec.Delta))
			if deep.res.SettleTick != padded || deep.doneTick != padded {
				t.Fatalf("over a confirmation depth the run settled at %d and ended at %d, want its padded horizon %d",
					deep.res.SettleTick, deep.doneTick, padded)
			}
		})
	}
}

func TestConcurrentHaltedPartySafe(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	behaviors := map[digraph.Vertex]core.Behavior{
		1: adversary.HaltAt(core.NewConforming(), 0),
	}
	res, err := Run(setup, behaviors, Config{Scheduler: freeClock(t)})
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
