package chain

import (
	"testing"
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
