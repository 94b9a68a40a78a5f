package digraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSCCsCycle(t *testing.T) {
	d := cycle3()
	comps := d.SCCs()
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("SCCs = %v, want one component of 3", comps)
	}
	if !d.StronglyConnected() {
		t.Error("3-cycle should be strongly connected")
	}
}

func TestSCCsChain(t *testing.T) {
	// 0 -> 1 -> 2: three singleton components.
	d := FromArcs(3, [2]int{0, 1}, [2]int{1, 2})
	comps := d.SCCs()
	if len(comps) != 3 {
		t.Fatalf("SCCs = %v, want 3 singletons", comps)
	}
	if d.StronglyConnected() {
		t.Error("chain should not be strongly connected")
	}
}

func TestSCCsMixed(t *testing.T) {
	// Two 2-cycles joined by a one-way arc: {0,1} -> {2,3}.
	d := FromArcs(4,
		[2]int{0, 1}, [2]int{1, 0},
		[2]int{2, 3}, [2]int{3, 2},
		[2]int{1, 2},
	)
	comps := d.SCCs()
	if len(comps) != 2 {
		t.Fatalf("SCCs = %v, want 2 components", comps)
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[2] != 2 {
		t.Errorf("components = %v, want two of size 2", comps)
	}
	// Reverse topological order: the component that is reached ({2,3})
	// must be emitted before the component that reaches it ({0,1}).
	if comps[0][0] != 2 {
		t.Errorf("first component = %v, want {2,3} (reverse topological)", comps[0])
	}
}

func TestStronglyConnectedTrivial(t *testing.T) {
	if !New().StronglyConnected() {
		t.Error("empty digraph is trivially strongly connected")
	}
	d := New()
	d.AddVertex("solo")
	if !d.StronglyConnected() {
		t.Error("single vertex is trivially strongly connected")
	}
	two := FromArcs(2, [2]int{0, 1})
	if two.StronglyConnected() {
		t.Error("one-way pair is not strongly connected")
	}
}

func TestReachable(t *testing.T) {
	d := FromArcs(4, [2]int{0, 1}, [2]int{1, 2})
	tests := []struct {
		u, v Vertex
		want bool
	}{
		{0, 2, true},
		{2, 0, false},
		{0, 0, true},
		{0, 3, false},
		{3, 3, true},
	}
	for _, tt := range tests {
		if got := d.Reachable(tt.u, tt.v); got != tt.want {
			t.Errorf("Reachable(%d, %d) = %v, want %v", tt.u, tt.v, got, tt.want)
		}
	}
}

// TestSCCMatchesBruteForce checks Tarjan against the definition: u and v are
// in the same component iff mutually reachable.
func TestSCCMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 8, 0.3)
		comps := d.SCCs()
		compOf := make(map[Vertex]int)
		for i, c := range comps {
			for _, v := range c {
				compOf[v] = i
			}
		}
		n := d.NumVertices()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := compOf[Vertex(u)] == compOf[Vertex(v)]
				mutual := d.Reachable(Vertex(u), Vertex(v)) && d.Reachable(Vertex(v), Vertex(u))
				if same != mutual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSCCCoversAllVertices(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 10, 0.25)
		seen := make(map[Vertex]int)
		for _, c := range d.SCCs() {
			for _, v := range c {
				seen[v]++
			}
		}
		if len(seen) != d.NumVertices() {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSCCIndexAgreesWithSCCs: comp[v] is the position of v's component in
// SCCs order, and every component comes out sorted.
func TestSCCIndexAgreesWithSCCs(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 9, 0.25)
		comp, count := d.SCCIndex()
		comps := d.SCCs()
		if count != len(comps) || len(comp) != d.NumVertices() {
			return false
		}
		for i, c := range comps {
			for j, v := range c {
				if comp[v] != i || (j > 0 && c[j-1] >= v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestComponentsReusesScratch: one scratch carried across arc lists of
// shrinking and growing size gives what a fresh SCCIndex gives each time.
func TestComponentsReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s SCCScratch
	for i := 0; i < 200; i++ {
		d := randomDigraph(rng, 12, 0.2)
		want, wantCount := d.SCCIndex()
		got, count := s.Components(d.NumVertices(), d.Arcs())
		if count != wantCount || !slices.Equal(got, want) {
			t.Fatalf("graph %d (%s): reused scratch gave %v (%d), fresh %v (%d)", i, d, got, count, want, wantCount)
		}
	}
	if comp, count := s.Components(0, nil); len(comp) != 0 || count != 0 {
		t.Errorf("empty graph: %v, %d", comp, count)
	}
}
