package engine

import (
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestGriefingCostFixture is the economics layer's hand-checked anchor:
// one three-party ring with distinct amounts (5, 7, 11) and a silent
// leader, on the deterministic scheduler, priced to exact token-tick
// constants.
//
// The silent leader completes Phase One — all three contracts publish —
// then never reveals its secret, so every party waits out its own
// timelock and refunds (NoDeal). The timelock ladder staggers the
// refunds, so each arc's lock DURATION (resolve − publish ticks) is
// fixed by the schedule alone, independent of the amounts:
//
//	leader a:   5 tokens × 76 ticks = 380 token-ticks  (deviant side)
//	follower b: 7 tokens × 49 ticks = 343 token-ticks  (conforming)
//	follower c: 11 tokens × 22 ticks = 242 token-ticks (conforming)
//
// Griefing cost = conforming lock inside the deviant-carrying swap =
// 343 + 242 = 585; deviant lock 380; factor 585/380. Nothing transfers
// in a NoDeal, so both bribery extremes — and the margin — are zero.
// Any drift in these constants means the schedule, the span capture, or
// the integral arithmetic changed.
//
// The ring is a single-leader component, so by default it runs on classic
// HTLCs; forced onto the hashkey protocol it must price to the same
// constants — the two contracts share one timelock ladder, and a silent
// leader's victims wait out the same deadlines on either.
func TestGriefingCostFixture(t *testing.T) {
	t.Run("by-component", func(t *testing.T) { griefingCostFixture(t, 0) })
	t.Run("forced-general", func(t *testing.T) { griefingCostFixture(t, core.KindGeneral) })
}

func griefingCostFixture(t *testing.T, kind core.Kind) {
	cfg := Config{
		Kind:          kind,
		Workers:       2,
		ClearInterval: time.Millisecond,
		Tick:          time.Millisecond,
		Delta:         15,
		Seed:          42,
		Deterministic: true,
	}
	cfg.Behaviors = func(setup *core.Setup, seed int64) SwapBehaviors {
		spec := setup.Spec
		lv := spec.Leaders[0]
		idx, _ := spec.LeaderIndex(lv)
		return SwapBehaviors{
			Behaviors: map[digraph.Vertex]core.Behavior{lv: adversary.SilentLeader(idx)},
			Deviants:  map[digraph.Vertex]string{lv: "silent-leader"},
		}
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	amounts := map[string]uint64{"a": 5, "b": 7, "c": 11}
	parties := []string{"a", "b", "c"}
	sc := e.Scheduler()
	release := sc.Hold()
	var wg sync.WaitGroup
	for i, p := range parties {
		o := core.Offer{
			Party: chain.PartyID("fix-" + p),
			Give: []core.ProposedTransfer{{
				To:     chain.PartyID("fix-" + parties[(i+1)%3]),
				Chain:  "chain-" + p,
				Asset:  chain.AssetID("asset-" + p),
				Amount: amounts[p],
			}},
		}
		wg.Add(1)
		sc.At(vtime.Ticks(i+1), func() {
			defer wg.Done()
			if _, err := e.Submit(o); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	release()
	wg.Wait()
	drainAndStop(t, e)
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}

	econ := e.Report().Economics
	if econ == nil {
		t.Fatal("economics report missing")
	}
	if econ.ConformingLockTokenTicks != 585 || econ.DeviantLockTokenTicks != 380 {
		t.Fatalf("lock integrals %d/%d, want 585 conforming (7×49 + 11×22) / 380 deviant (5×76)",
			econ.ConformingLockTokenTicks, econ.DeviantLockTokenTicks)
	}
	if econ.GriefingCostTokenTicks != 585 || econ.GriefedSwaps != 1 {
		t.Fatalf("griefing %d over %d swaps, want the full conforming lock 585 over 1",
			econ.GriefingCostTokenTicks, econ.GriefedSwaps)
	}
	if want := 585.0 / 380.0; econ.GriefingFactor != want {
		t.Fatalf("griefing factor %v, want %v", econ.GriefingFactor, want)
	}
	if econ.BestCoalitionGain != 0 || econ.WorstConformingLoss != 0 || econ.BriberySafetyMargin != 0 {
		t.Fatalf("NoDeal moved value: %+v", econ)
	}

	// Per-order locks carry the same integrals (lock = amount × duration,
	// so the staggered refund ladder is visible as 76/49/22 tick holds),
	// and their sum closes against the report's split.
	wantLocks := map[string]uint64{"fix-a": 380, "fix-b": 343, "fix-c": 242}
	var sum uint64
	for _, o := range e.Orders() {
		if o.Status != StatusSettled {
			t.Fatalf("order %d not settled: %+v", o.ID, o)
		}
		if o.Class != outcome.NoDeal {
			t.Fatalf("order %d class %s, want NoDeal", o.ID, o.Class)
		}
		if o.LockTickValue != wantLocks[o.Party] {
			t.Fatalf("party %s locked %d token-ticks, want %d",
				o.Party, o.LockTickValue, wantLocks[o.Party])
		}
		sum += o.LockTickValue
	}
	if sum != econ.ConformingLockTokenTicks+econ.DeviantLockTokenTicks {
		t.Fatalf("per-order locks sum to %d, report splits to %d+%d",
			sum, econ.ConformingLockTokenTicks, econ.DeviantLockTokenTicks)
	}
}
