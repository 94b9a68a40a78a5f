package core

import (
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

func quickRand(t *testing.T) *rand.Rand {
	t.Helper()
	return rand.New(rand.NewSource(77))
}

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

func TestWaitsForDetectsTheorem412Deadlock(t *testing.T) {
	// Leaders {A} on the two-leader triangle: B and C wait for each
	// other. The cycle is present from the initial state and survives
	// the leader's publications — the Theorem 4.12 argument, executable.
	setup, err := NewSetup(graphgen.TwoLeaderTriangle(), Config{
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
	r := NewRunner(setup, Options{})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if cyc := setup.Spec.DeadlockCycle(r.PublishedArcs()); cyc == nil {
		t.Error("deadlock should persist after the leader's publications")
	}
}

func TestWaitsForCleanAfterConformingRun(t *testing.T) {
	setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{})
	r := NewRunner(setup, Options{})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if w := setup.Spec.WaitsFor(r.PublishedArcs()); w.NumArcs() != 0 {
		t.Errorf("conforming run should leave no one waiting, got %v", w)
	}
}
