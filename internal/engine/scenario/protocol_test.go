package scenario

import (
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
)

// runner is Run with the engine's protocol choice fixed by forEachProtocol.
type runner func(Scenario) (*Result, error)

// forEachProtocol runs a safety or replay test along the protocol axis: once
// with the engine's own choice per cleared component — rings, which are all
// of most scenarios, on the Section 4.6 hashlock staircase — and once with
// the hashkey protocol forced on every swap, as it ran before the engine
// chose. Theorem 4.9, conservation and the replay contract are claims about
// both, so every test that asserts them takes its runner from here.
func forEachProtocol(t *testing.T, test func(t *testing.T, run runner)) {
	for _, p := range []struct {
		name string
		kind core.Kind
	}{
		{"by-component", 0},
		{"forced-general", core.KindGeneral},
	} {
		t.Run(p.name, func(t *testing.T) {
			test(t, func(sc Scenario) (*Result, error) { return run(sc, p.kind) })
		})
	}
}

// TestProtocolAxisIsReal guards the axis itself: on a ring scenario the two
// runners must actually execute different protocols, or every
// forEachProtocol test silently checks one protocol twice.
func TestProtocolAxisIsReal(t *testing.T) {
	sc := Scenario{Name: "axis", Seed: 5, Offers: 12, Rate: 2000, Profile: "constant"}
	split := make(map[string][2]int)
	forEachProtocol(t, func(t *testing.T, run runner) {
		res, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		split[t.Name()] = [2]int{res.Report.SwapsSingleLeader, res.Report.SwapsGeneral}
	})
	if got, want := split[t.Name()+"/by-component"], [2]int{4, 0}; got != want {
		t.Errorf("by-component ran %d single-leader / %d general swaps, want %d / %d", got[0], got[1], want[0], want[1])
	}
	if got, want := split[t.Name()+"/forced-general"], [2]int{0, 4}; got != want {
		t.Errorf("forced-general ran %d single-leader / %d general swaps, want %d / %d", got[0], got[1], want[0], want[1])
	}
}

// TestStrategiesApplyOnBothProtocols: no named strategy is "multi-leader
// only". On a four-ring under either protocol every strategy applies to the
// leader (and all but the two leader-only ones to a follower), the deviant
// it builds acts on that protocol's contracts — it never rejects a
// conforming counterparty's contract as the wrong type — and no conforming
// party ends Underwater. (adversary's TestStrategiesDeviateOnBothProtocols
// pins the per-party payoff classes.)
func TestStrategiesApplyOnBothProtocols(t *testing.T) {
	leaderOnly := map[string]bool{"silent-leader": true, "premature-reveal": true}
	for _, name := range Strategies() {
		for _, kind := range []core.Kind{core.KindSingleLeader, core.KindGeneral} {
			for _, onLeader := range []bool{true, false} {
				setup, err := core.NewSetup(graphgen.Cycle(4), core.Config{
					Kind: kind, Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(3)),
				})
				if err != nil {
					t.Fatal(err)
				}
				spec := setup.Spec
				v := spec.Leaders[0]
				if !onLeader {
					v = (v + 2) % 4
				}
				b, ok := strategies[name](rand.New(rand.NewSource(9)), spec, v)
				if want := onLeader || !leaderOnly[name]; ok != want {
					t.Errorf("%s on %s, leader=%v: applies = %v, want %v", name, kind, onLeader, ok, want)
				}
				if !ok {
					continue
				}
				r := conc.NewRunner(setup)
				r.SetBehavior(v, b)
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				who := string(spec.PartyOf(v))
				for _, e := range res.Log.OfKind(trace.KindContractRejected) {
					if e.Party == who {
						t.Errorf("%s on %s: the deviant rejected a conforming contract: %v", name, kind, e)
					}
				}
				for _, c := range res.Conforming {
					if res.Report.Of(c) == outcome.Underwater {
						t.Errorf("%s on %s, leader=%v: conforming %s ended Underwater", name, kind, onLeader, spec.PartyOf(c))
					}
				}
			}
		}
	}
}
