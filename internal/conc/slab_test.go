package conc

import (
	"testing"
	"unsafe"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestEventBudgetIsExactForConformingRuns: the slab a virtual run is given
// holds exactly the scheduler events a conforming run of its shape makes —
// 14 for a three-party ring where one event per party and delivery made 25
// — so such a run never touches the heap for a delivery and wastes no slot.
func TestEventBudgetIsExactForConformingRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *digraph.Digraph
		cfg  core.Config
		want int
	}{
		{"ring-3", graphgen.Cycle(3), core.Config{Kind: core.KindByLeaders}, 14},
		{"ring-3-general", graphgen.Cycle(3), core.Config{}, 14},
		{"ring-5", graphgen.Cycle(5), core.Config{Kind: core.KindByLeaders}, 22},
		{"flower", graphgen.Flower(2, 3), core.Config{Kind: core.KindByLeaders}, 0},
		{"two-leader", graphgen.TwoLeaderTriangle(), core.Config{}, 0},
		{"clique-4", graphgen.Clique(4), core.Config{}, 0},
		{"ring-3-broadcast", graphgen.Cycle(3), core.Config{Broadcast: true}, 15},
	} {
		setup := concSetup(t, tc.d, tc.cfg)
		sc := sched.NewVirtual(1)
		release := sc.Hold() // the run cuts its slab as it goes: read the budget first
		rn, err := Prepare(setup, nil, Config{Scheduler: sc, StartOffset: 25})
		if err != nil {
			t.Fatal(err)
		}
		budget := cap(rn.r.slab)
		release()
		if tc.want != 0 && budget != tc.want {
			t.Errorf("%s: budget %d events, want %d", tc.name, budget, tc.want)
		}
		res := rn.Wait()
		sc.Close()
		if !res.Report.AllDeal() {
			t.Fatalf("%s: conforming run did not end all-Deal", tc.name)
		}
		if used := len(rn.r.slab); used != budget {
			t.Errorf("%s: run made %d scheduler events, its slab was sized for %d", tc.name, used, budget)
		}
		// The payload tables are sized the same way: every refund alarm,
		// and on Swap contracts every unlock and broadcast key, fills
		// them exactly; a ring keeps no key table.
		if len(rn.r.alarms) != cap(rn.r.alarms) || len(rn.r.keys) != cap(rn.r.keys) {
			t.Errorf("%s: alarm table %d of %d, key table %d of %d", tc.name,
				len(rn.r.alarms), cap(rn.r.alarms), len(rn.r.keys), cap(rn.r.keys))
		}
		if setup.Spec.Kind != core.KindGeneral && rn.r.keys != nil {
			t.Errorf("%s: a run on classic HTLCs made a key table", tc.name)
		}
	}
}

// TestDeliveryFitsItsBudget: a delivery carries its kind, tick, arc, lock
// and a slot in the run's payload tables — no hashkey, contract or alarm
// of its own — so it fits in half the 224 bytes those would cost it.
func TestDeliveryFitsItsBudget(t *testing.T) {
	if size := unsafe.Sizeof(delivery{}); size > 112 {
		t.Errorf("a delivery is %d bytes, want at most 112", size)
	}
}

// alarmist is a conforming party that also arms a burst of extra alarms,
// more than any layout budgets for.
type alarmist struct {
	core.Behavior
	fired *int
}

func (a alarmist) Init(e core.Env) {
	for i := 0; i < 40; i++ {
		e.At(e.Now().Add(vtime.Duration(1+i%5)), core.AlarmFunc(func() { *a.fired++ }), 0)
	}
	a.Behavior.Init(e)
}

// TestSlabOverflowFallsBackToHeap: deliveries past the slab's size come
// from the heap and behave like any other — they fire in order, teardown
// cancels the ones still outstanding, and the run's outcome is untouched.
func TestSlabOverflowFallsBackToHeap(t *testing.T) {
	setup := concSetup(t, graphgen.Cycle(3), core.Config{Kind: core.KindByLeaders})
	fired := 0
	behaviors := map[digraph.Vertex]core.Behavior{
		1: alarmist{Behavior: core.ConformingFor(setup.Spec), fired: &fired},
	}
	sc := sched.NewVirtual(1)
	defer sc.Close()
	rn, err := Prepare(setup, behaviors, Config{Scheduler: sc, StartOffset: 25})
	if err != nil {
		t.Fatal(err)
	}
	res := rn.Wait()
	if !res.Report.AllDeal() {
		t.Fatal("run with extra alarms did not end all-Deal")
	}
	if fired != 40 {
		t.Errorf("%d of 40 extra alarms fired", fired)
	}
	if len(rn.r.slab) != cap(rn.r.slab) {
		t.Errorf("slab not filled before overflowing: %d of %d", len(rn.r.slab), cap(rn.r.slab))
	}
}

// TestBroadcastChainOnlyForBroadcastSwaps: a run touches the broadcast
// chain — creating it on the registry, subscribing to its data records —
// only when its spec broadcasts; every other run leaves the registry with
// the asset chains alone.
func TestBroadcastChainOnlyForBroadcastSwaps(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		sc := sched.NewVirtual(1)
		setup := concSetup(t, graphgen.Cycle(3), core.Config{Tag: "b", Broadcast: broadcast})
		res, err := Run(setup, nil, Config{Scheduler: sc, StartOffset: 25})
		sc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Report.AllDeal() {
			t.Fatalf("broadcast=%v: run did not end all-Deal", broadcast)
		}
		created := false
		for _, name := range res.Registry.Names() {
			created = created || name == core.BroadcastChain
		}
		if created != broadcast {
			t.Errorf("broadcast=%v: broadcast chain created = %v", broadcast, created)
		}
	}
}
