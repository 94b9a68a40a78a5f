package digraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsFeedbackVertexSet(t *testing.T) {
	d := cycle3()
	tests := []struct {
		name string
		set  []Vertex
		want bool
	}{
		{name: "single vertex breaks cycle", set: []Vertex{0}, want: true},
		{name: "empty set on cyclic graph", set: []Vertex{}, want: false},
		{name: "all vertexes", set: []Vertex{0, 1, 2}, want: true},
		{name: "out of range vertex", set: []Vertex{9}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := d.IsFeedbackVertexSet(tt.set); got != tt.want {
				t.Errorf("IsFeedbackVertexSet(%v) = %v, want %v", tt.set, got, tt.want)
			}
		})
	}
}

func TestIsFeedbackVertexSetAcyclic(t *testing.T) {
	d := FromArcs(3, [2]int{0, 1}, [2]int{1, 2})
	if !d.IsFeedbackVertexSet(nil) {
		t.Error("empty set is an FVS of an acyclic digraph")
	}
}

func TestExactMinFVS(t *testing.T) {
	tests := []struct {
		name string
		d    *Digraph
		size int
	}{
		{name: "acyclic", d: FromArcs(3, [2]int{0, 1}, [2]int{1, 2}), size: 0},
		{name: "3-cycle", d: cycle3(), size: 1},
		{name: "two disjoint cycles", d: FromArcs(4,
			[2]int{0, 1}, [2]int{1, 0}, [2]int{2, 3}, [2]int{3, 2}), size: 2},
		{name: "complete on 3", d: FromArcs(3,
			[2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}, [2]int{2, 1}, [2]int{0, 2}, [2]int{2, 0}), size: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fvs := tt.d.ExactMinFVS()
			if len(fvs) != tt.size {
				t.Fatalf("ExactMinFVS = %v, want size %d", fvs, tt.size)
			}
			if !tt.d.IsFeedbackVertexSet(fvs) {
				t.Errorf("ExactMinFVS returned non-FVS %v", fvs)
			}
		})
	}
}

func TestGreedyFVSValidAndMinimal(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 9, 0.3)
		fvs := d.GreedyFVS()
		if !d.IsFeedbackVertexSet(fvs) {
			return false
		}
		// Minimality: no member is redundant.
		for i := range fvs {
			trial := make([]Vertex, 0, len(fvs)-1)
			trial = append(trial, fvs[:i]...)
			trial = append(trial, fvs[i+1:]...)
			if d.IsFeedbackVertexSet(trial) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGreedyNeverSmallerThanExact(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 8, 0.3)
		return len(d.GreedyFVS()) >= len(d.ExactMinFVS())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinFVS(t *testing.T) {
	d := cycle3()
	fvs, exact := d.MinFVS()
	if !exact || len(fvs) != 1 {
		t.Errorf("MinFVS = (%v, %v), want exact size 1", fvs, exact)
	}

	// A graph whose cycle-vertex count exceeds the exact threshold routes
	// to the greedy path.
	n := MaxExactVertices + 4
	big := New()
	for i := 0; i < n; i++ {
		big.AddVertex("")
	}
	for i := 0; i < n; i++ {
		big.MustAddArc(Vertex(i), Vertex((i+1)%n))
	}
	fvs, exact = big.MinFVS()
	if exact {
		t.Error("large graph should use the heuristic")
	}
	if !big.IsFeedbackVertexSet(fvs) {
		t.Errorf("heuristic returned non-FVS %v", fvs)
	}
}

func TestFVSAlsoWorksOnTranspose(t *testing.T) {
	// The paper notes any FVS for D is an FVS for the transpose.
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 8, 0.3)
		fvs := d.GreedyFVS()
		return d.Transpose().IsFeedbackVertexSet(fvs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFVSTestMatchesSubdigraphDefinition checks the mask-based test, with
// its scratch reused across calls, against the definition: delete the
// vertexes, ask whether what is left is acyclic.
func TestFVSTestMatchesSubdigraphDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		d := randomDigraph(rnd, 7, 0.3)
		scratch := d.newFVSScratch()
		for trial := 0; trial < 20; trial++ {
			var set []Vertex
			deleted := make(map[Vertex]bool)
			for v := 0; v < d.NumVertices(); v++ {
				if rnd.Intn(3) == 0 {
					set = append(set, Vertex(v))
					deleted[Vertex(v)] = true
				}
			}
			want := d.WithoutVertices(deleted).IsAcyclic()
			if scratch.isFVS(d, set) != want || d.IsFeedbackVertexSet(set) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
