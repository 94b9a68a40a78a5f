package chain

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func TestRegistryCreatesOnDemand(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	a := r.Chain("alpha")
	b := r.Chain("alpha")
	if a != b {
		t.Error("same name should return the same chain")
	}
	if a.Name() != "alpha" {
		t.Errorf("Name = %q, want alpha", a.Name())
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Chain(n)
	}
	names := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestTotalStorageBytes(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	r.Chain("a").PublishData("x", "d", nil, 10)
	r.Chain("b").PublishData("x", "d", nil, 32)
	if got := r.TotalStorageBytes(); got != 42 {
		t.Errorf("TotalStorageBytes = %d, want 42", got)
	}
}

func TestVerifyAllLedgers(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	r.Chain("a").PublishData("x", "", nil, 0)
	if !r.VerifyAllLedgers() {
		t.Error("fresh ledgers should verify")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	if err := r.Chain("a").RegisterAsset(Asset{ID: "coin"}, "alice"); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap["a"]["coin"] != ByParty("alice") {
		t.Errorf("snapshot = %v", snap)
	}
}

// TestCommitmentModelsApplyAtCreation: the factory runs once per chain, as
// the chain is created. A nil or Instant model leaves the chain instant and
// off the settlement pump's list; any other model puts it there, in name
// order whatever the creation order.
func TestCommitmentModelsApplyAtCreation(t *testing.T) {
	v := sched.NewVirtual(1)
	defer v.Close()
	r := NewRegistry(v)
	depth := Depth{K: 2}
	calls := map[string]int{}
	err := r.SetCommitmentModels(func(name string) CommitmentModel {
		calls[name]++
		switch name {
		case "none":
			return nil
		case "instant":
			return Instant{}
		}
		return depth
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"zeta", "none", "alpha", "instant", "zeta", "alpha"} {
		r.Chain(n)
	}
	for _, n := range []string{"zeta", "none", "alpha", "instant"} {
		if calls[n] != 1 {
			t.Errorf("factory ran %d times for %s, want 1", calls[n], n)
		}
	}
	if got, want := r.ModeledChains(), []string{"alpha", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ModeledChains = %v, want %v", got, want)
	}
	for n, want := range map[string]Timing{"alpha": depth.Timing(), "zeta": depth.Timing(), "none": {}, "instant": {}} {
		if got := r.Chain(n).Timing(); got != want {
			t.Errorf("chain %s timing %+v, want %+v", n, got, want)
		}
	}
}

// TestSetCommitmentModelsNeedsSchedulingClock: a clock that cannot arm a
// settlement pass is refused, so no model is installed to never finalize.
func TestSetCommitmentModelsNeedsSchedulingClock(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	if err := r.SetCommitmentModels(func(string) CommitmentModel { return Depth{K: 2} }); err == nil {
		t.Fatal("fixed clock accepted")
	}
	if got := r.Chain("a").Timing(); got != (Timing{}) {
		t.Errorf("refused factory still applied: timing %+v", got)
	}
}

// TestSetCommitmentModelsBeforeFirstChain: a factory arriving after a
// chain exists is refused (that chain may already hold records), and a nil
// factory is a no-op, not an error.
func TestSetCommitmentModelsBeforeFirstChain(t *testing.T) {
	v := sched.NewVirtual(1)
	defer v.Close()
	r := NewRegistry(v)
	if err := r.SetCommitmentModels(nil); err != nil {
		t.Fatalf("nil factory: %v", err)
	}
	r.Chain("early")
	if err := r.SetCommitmentModels(func(string) CommitmentModel { return Depth{K: 2} }); err == nil {
		t.Fatal("factory accepted after a chain was created")
	}
	r.Chain("late")
	if got := r.ModeledChains(); len(got) != 0 {
		t.Errorf("ModeledChains = %v after a refused factory", got)
	}
}

// TestCommitmentPumpInTick pins the settlement pump's place in a tick on a
// sched.Virtual: the pass for tick t runs after a level-3 event of t (the
// coordinator's clearing) and before a sched.TopLevel one (the WAL's seal),
// and it is booked once per tick however many chains and records fall due
// then. Records land on three chains at tick 0 and on two at tick 1, so
// they fall due at ticks depth and depth+1.
func TestCommitmentPumpInTick(t *testing.T) {
	v := sched.NewVirtual(1)
	r := NewRegistry(v)
	const depth = 3
	if err := r.SetCommitmentModels(func(string) CommitmentModel { return Depth{K: depth} }); err != nil {
		t.Fatal(err)
	}
	names := []string{"c", "a", "b"}
	publish := func(chains []string, tag string) {
		for _, name := range chains {
			c := r.Chain(name)
			for i := 0; i < 4; i++ {
				owner := PartyID(fmt.Sprintf("%s-p%d", tag, i))
				asset := AssetID(fmt.Sprintf("%s-coin%d", tag, i))
				if err := c.RegisterAsset(Asset{ID: asset, Amount: 1}, owner); err != nil {
					t.Fatal(err)
				}
				rc := &revContract{fakeContract: fakeContract{
					id: ContractID(fmt.Sprintf("%s-rc%d", tag, i)), party: owner, asset: asset, size: 32,
				}}
				if err := c.PublishContract(owner, rc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pending := func() (n int) {
		for _, name := range names {
			n += r.Chain(name).PendingCommitments()
		}
		return n
	}
	booked := func() int {
		r.modelMu.Lock()
		defer r.modelMu.Unlock()
		return len(r.pumpAt)
	}

	release := v.Hold()
	publish(names, "t0")
	if got, want := v.Pending(), 1; got != want {
		t.Fatalf("12 records due at tick %d queued %d events, want %d", depth, got, want)
	}
	seen := map[string]int{}
	v.At(1, func() {
		publish(names[:2], "t1")
		seen["ticks booked at tick 1"] = booked()
	})
	for _, at := range []vtime.Ticks{depth, depth + 1} {
		v.AtLevel(at, 3, 0, func() { seen[fmt.Sprintf("level 3 of %d", at)] = pending() })
		v.AtLevel(at, sched.TopLevel, 0, func() { seen[fmt.Sprintf("top of %d", at)] = pending() })
	}
	release()
	v.RunUntil(depth + 1)

	want := map[string]int{
		"ticks booked at tick 1": 2,
		"level 3 of 3":           20,
		"top of 3":               8,
		"level 3 of 4":           8,
		"top of 4":               0,
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("pending records %v, want %v", seen, want)
	}
	if got := booked(); got != 0 {
		t.Errorf("%d settlement ticks still booked after the run", got)
	}
}
