package graphgen

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

func TestThreeWay(t *testing.T) {
	d := ThreeWay()
	if d.NumVertices() != 3 || d.NumArcs() != 3 {
		t.Fatalf("sizes = (%d, %d), want (3, 3)", d.NumVertices(), d.NumArcs())
	}
	if !d.StronglyConnected() {
		t.Error("three-way swap must be strongly connected")
	}
	alice, _ := d.VertexByName("Alice")
	if !d.IsFeedbackVertexSet([]digraph.Vertex{alice}) {
		t.Error("Alice alone should be an FVS")
	}
	if diam, _ := d.Diameter(); diam != 2 {
		t.Errorf("diameter = %d, want 2", diam)
	}
}

func TestTwoLeaderTriangle(t *testing.T) {
	d := TwoLeaderTriangle()
	if d.NumArcs() != 6 {
		t.Fatalf("NumArcs = %d, want 6", d.NumArcs())
	}
	if !d.StronglyConnected() {
		t.Error("must be strongly connected")
	}
	min := d.ExactMinFVS()
	if len(min) != 2 {
		t.Errorf("minimum FVS size = %d, want 2 (the paper's two-leader case)", len(min))
	}
	// No single vertex suffices.
	for v := 0; v < 3; v++ {
		if d.IsFeedbackVertexSet([]digraph.Vertex{digraph.Vertex(v)}) {
			t.Errorf("single vertex %d should not be an FVS", v)
		}
	}
}

func TestCycle(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		d := Cycle(n)
		if d.NumArcs() != n {
			t.Errorf("Cycle(%d) arcs = %d, want %d", n, d.NumArcs(), n)
		}
		if !d.StronglyConnected() {
			t.Errorf("Cycle(%d) should be strongly connected", n)
		}
		if min := d.ExactMinFVS(); len(min) != 1 {
			t.Errorf("Cycle(%d) min FVS = %v, want size 1", n, min)
		}
		if n <= digraph.MaxExactVertices {
			if diam, _ := d.Diameter(); diam != n-1 {
				t.Errorf("Cycle(%d) diameter = %d, want %d", n, diam, n-1)
			}
		}
	}
}

func TestBidirCycle(t *testing.T) {
	d := BidirCycle(5)
	if d.NumArcs() != 10 {
		t.Fatalf("arcs = %d, want 10", d.NumArcs())
	}
	if !d.StronglyConnected() {
		t.Error("should be strongly connected")
	}
	// Every 2-cycle (i, i+1) must lose a vertex, so a minimum FVS is a
	// minimum vertex cover of the undirected 5-cycle: ⌈5/2⌉ = 3.
	min := d.ExactMinFVS()
	if !d.IsFeedbackVertexSet(min) {
		t.Errorf("ExactMinFVS returned a non-FVS: %v", min)
	}
	if len(min) != 3 {
		t.Errorf("BidirCycle(5) min FVS size = %d, want 3", len(min))
	}
}

func TestClique(t *testing.T) {
	d := Clique(4)
	if d.NumArcs() != 12 {
		t.Fatalf("arcs = %d, want 12", d.NumArcs())
	}
	min := d.ExactMinFVS()
	if len(min) != 3 {
		t.Errorf("Clique(4) min FVS size = %d, want n-1 = 3", len(min))
	}
}

func TestFlower(t *testing.T) {
	d := Flower(3, 2)
	if d.NumVertices() != 7 { // center + 3 petals × 2
		t.Fatalf("vertexes = %d, want 7", d.NumVertices())
	}
	if !d.StronglyConnected() {
		t.Error("flower should be strongly connected")
	}
	center, _ := d.VertexByName("L")
	if !d.IsFeedbackVertexSet([]digraph.Vertex{center}) {
		t.Error("center should be a single-vertex FVS")
	}
	if min := d.ExactMinFVS(); len(min) != 1 {
		t.Errorf("min FVS = %v, want size 1", min)
	}
}

func TestLeaderDAG(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		n := 2 + int(seed%9)
		d := LeaderDAG(n, 0.35, seed)
		if d.NumVertices() != n || !d.StronglyConnected() {
			t.Fatalf("seed %d: %d vertexes, strongly connected = %v", seed, d.NumVertices(), d.StronglyConnected())
		}
		if !d.IsFeedbackVertexSet([]digraph.Vertex{0}) {
			t.Fatalf("seed %d: the leader alone is not a feedback vertex set", seed)
		}
		if !digraph.StructuralEqual(d, LeaderDAG(n, 0.35, seed)) {
			t.Fatalf("seed %d: not deterministic", seed)
		}
	}
}

func TestRandomStronglyConnected(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		d := RandomStronglyConnected(8, 0.3, seed)
		if !d.StronglyConnected() {
			t.Errorf("seed %d: not strongly connected", seed)
		}
	}
	// Determinism: same seed, same graph.
	a := RandomStronglyConnected(8, 0.3, 7)
	b := RandomStronglyConnected(8, 0.3, 7)
	if !digraph.StructuralEqual(a, b) {
		t.Error("same seed should give the same graph")
	}
	c := RandomStronglyConnected(8, 0.3, 8)
	if digraph.StructuralEqual(a, c) {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestNotStronglyConnected(t *testing.T) {
	d := NotStronglyConnected(3, 3)
	if d.StronglyConnected() {
		t.Fatal("must not be strongly connected")
	}
	// X can reach Y but not vice versa.
	if !d.Reachable(0, 3) {
		t.Error("X should reach Y")
	}
	if d.Reachable(3, 0) {
		t.Error("Y should not reach X")
	}
}

func TestMultiArcPair(t *testing.T) {
	d := MultiArcPair(3)
	if d.NumArcs() != 4 {
		t.Fatalf("arcs = %d, want 4", d.NumArcs())
	}
	if !d.StronglyConnected() {
		t.Error("pair should be strongly connected")
	}
	a, _ := d.VertexByName("Alice")
	b, _ := d.VertexByName("Bob")
	if got := len(d.ArcsBetween(a, b)); got != 3 {
		t.Errorf("parallel arcs = %d, want 3", got)
	}
	if got := len(d.ArcsBetween(b, a)); got != 1 {
		t.Errorf("return arcs = %d, want 1", got)
	}
}

func TestPanicsOnBadSizes(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"Cycle(1)", func() { Cycle(1) }},
		{"BidirCycle(2)", func() { BidirCycle(2) }},
		{"Clique(1)", func() { Clique(1) }},
		{"Flower(0,1)", func() { Flower(0, 1) }},
		{"RandomStronglyConnected(1)", func() { RandomStronglyConnected(1, 0.5, 1) }},
		{"NotStronglyConnected(1,2)", func() { NotStronglyConnected(1, 2) }},
		{"MultiArcPair(0)", func() { MultiArcPair(0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.fn()
		})
	}
}
