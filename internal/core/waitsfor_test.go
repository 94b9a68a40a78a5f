package core

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

func TestWaitsForInitialState(t *testing.T) {
	// Three-cycle, leader Alice, nothing published: Bob waits for Alice,
	// Carol waits for Bob; Alice waits for no one. Acyclic — progress is
	// possible.
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	w := setup.Spec.WaitsFor(nil)
	if w.NumArcs() != 2 {
		t.Fatalf("waits-for arcs = %d, want 2", w.NumArcs())
	}
	if !w.HasArcBetween(1, 0) || !w.HasArcBetween(2, 1) {
		t.Errorf("waits-for structure wrong: %v", w)
	}
	if cyc := setup.Spec.DeadlockCycle(nil); cyc != nil {
		t.Errorf("FVS leaders must never deadlock, got cycle %v", cyc)
	}
}

func TestWaitsForDrainsAsContractsPublish(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	published := map[int]bool{0: true} // Alice's A->B is up
	w := setup.Spec.WaitsFor(published)
	if w.HasArcBetween(1, 0) {
		t.Error("Bob should no longer wait for Alice")
	}
	published[1] = true
	published[2] = true
	if setup.Spec.WaitsFor(published).NumArcs() != 0 {
		t.Error("fully published swap should have an empty waits-for digraph")
	}
}
