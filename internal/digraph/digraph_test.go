package digraph

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// cycle3 is the paper's Figure 1 digraph: Alice -> Bob -> Carol -> Alice.
func cycle3() *Digraph {
	d := New()
	a := d.AddVertex("Alice")
	b := d.AddVertex("Bob")
	c := d.AddVertex("Carol")
	d.MustAddArc(a, b)
	d.MustAddArc(b, c)
	d.MustAddArc(c, a)
	return d
}

func TestAddVertexAndArc(t *testing.T) {
	d := New()
	a := d.AddVertex("A")
	b := d.AddVertex("")
	if a != 0 || b != 1 {
		t.Fatalf("vertex indexes = %d, %d, want 0, 1", a, b)
	}
	if d.Name(a) != "A" {
		t.Errorf("Name(a) = %q, want A", d.Name(a))
	}
	if d.Name(b) != "v1" {
		t.Errorf("Name(b) = %q, want default v1", d.Name(b))
	}
	id, err := d.AddArc(a, b)
	if err != nil {
		t.Fatalf("AddArc: %v", err)
	}
	if id != 0 {
		t.Errorf("arc ID = %d, want 0", id)
	}
	arc := d.Arc(id)
	if arc.Head != a || arc.Tail != b {
		t.Errorf("Arc(0) = %+v, want head=0 tail=1", arc)
	}
	if d.NumVertices() != 2 || d.NumArcs() != 1 {
		t.Errorf("sizes = (%d, %d), want (2, 1)", d.NumVertices(), d.NumArcs())
	}
}

func TestAddArcErrors(t *testing.T) {
	d := New()
	a := d.AddVertex("A")
	tests := []struct {
		name       string
		head, tail Vertex
		want       error
	}{
		{name: "self loop", head: a, tail: a, want: ErrSelfLoop},
		{name: "head out of range", head: 5, tail: a, want: ErrVertexRange},
		{name: "tail out of range", head: a, tail: -1, want: ErrVertexRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := d.AddArc(tt.head, tt.tail); !errors.Is(err, tt.want) {
				t.Errorf("AddArc(%d, %d) err = %v, want %v", tt.head, tt.tail, err, tt.want)
			}
		})
	}
}

func TestParallelArcs(t *testing.T) {
	d := New()
	a := d.AddVertex("A")
	b := d.AddVertex("B")
	id1 := d.MustAddArc(a, b)
	id2 := d.MustAddArc(a, b)
	if id1 == id2 {
		t.Fatal("parallel arcs must have distinct IDs")
	}
	if got := d.ArcsBetween(a, b); len(got) != 2 {
		t.Errorf("ArcsBetween = %v, want 2 arcs", got)
	}
	if d.OutDegree(a) != 2 || d.InDegree(b) != 2 {
		t.Errorf("degrees = (%d, %d), want (2, 2)", d.OutDegree(a), d.InDegree(b))
	}
}

func TestOutInCopies(t *testing.T) {
	d := cycle3()
	out := d.Out(0)
	out[0] = 99
	if d.Out(0)[0] == 99 {
		t.Error("Out returned a live reference to internal state")
	}
	in := d.In(0)
	in[0] = 99
	if d.In(0)[0] == 99 {
		t.Error("In returned a live reference to internal state")
	}
}

func TestVertexByName(t *testing.T) {
	d := cycle3()
	v, ok := d.VertexByName("Bob")
	if !ok || v != 1 {
		t.Errorf("VertexByName(Bob) = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := d.VertexByName("Mallory"); ok {
		t.Error("VertexByName(Mallory) should not be found")
	}
}

func TestTranspose(t *testing.T) {
	d := cycle3()
	tr := d.Transpose()
	if tr.NumArcs() != d.NumArcs() || tr.NumVertices() != d.NumVertices() {
		t.Fatal("transpose changed sizes")
	}
	for _, a := range d.Arcs() {
		ta := tr.Arc(a.ID)
		if ta.Head != a.Tail || ta.Tail != a.Head {
			t.Errorf("arc %d not reversed: %+v vs %+v", a.ID, a, ta)
		}
	}
}

func TestTransposeTwiceIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 8, 0.4)
		tt := d.Transpose().Transpose()
		if !StructuralEqual(d, tt) {
			return false
		}
		// Arc IDs must also be preserved exactly.
		for _, a := range d.Arcs() {
			b := tt.Arc(a.ID)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	d := cycle3()
	c := d.Clone()
	if !StructuralEqual(d, c) {
		t.Fatal("clone not structurally equal")
	}
	c.MustAddArc(0, 2)
	if d.NumArcs() == c.NumArcs() {
		t.Error("mutating clone affected original")
	}
}

func TestWithoutVertices(t *testing.T) {
	d := cycle3()
	sub := d.WithoutVertices(map[Vertex]bool{0: true})
	if sub.NumVertices() != 3 {
		t.Errorf("vertex slots should be preserved, got %d", sub.NumVertices())
	}
	if sub.NumArcs() != 1 { // only Bob->Carol survives
		t.Errorf("NumArcs = %d, want 1", sub.NumArcs())
	}
	if !sub.HasArcBetween(1, 2) {
		t.Error("Bob->Carol should survive deleting Alice")
	}
}

func TestStructuralEqual(t *testing.T) {
	a := FromArcs(3, [2]int{0, 1}, [2]int{1, 2})
	b := FromArcs(3, [2]int{1, 2}, [2]int{0, 1}) // same arcs, other order
	c := FromArcs(3, [2]int{0, 1}, [2]int{2, 1})
	if !StructuralEqual(a, b) {
		t.Error("arc order should not matter")
	}
	if StructuralEqual(a, c) {
		t.Error("different arcs should not be equal")
	}
	if StructuralEqual(a, FromArcs(4, [2]int{0, 1}, [2]int{1, 2})) {
		t.Error("different vertex counts should not be equal")
	}
	if !StructuralEqual(a, a) {
		t.Error("a digraph equals itself")
	}
}

// TestStructuralEqualParallelArcs: arcs are a multiset — a doubled arc is
// not the same as two different arcs, however the copies are ordered.
func TestStructuralEqualParallelArcs(t *testing.T) {
	doubled := FromArcs(3, [2]int{0, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	reordered := FromArcs(3, [2]int{2, 0}, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 1})
	other := FromArcs(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{1, 2}, [2]int{2, 0})
	simple := FromArcs(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{1, 0})
	if !StructuralEqual(doubled, reordered) {
		t.Error("the same multiset in another order should be equal")
	}
	if StructuralEqual(doubled, other) {
		t.Error("doubling a different arc should not be equal")
	}
	if StructuralEqual(doubled, simple) {
		t.Error("a parallel arc is not a reverse arc")
	}
}

// TestBuildMatchesIncrementalConstruction: Build is AddVertex + AddArc in
// one step — same names, arc IDs, adjacency order and errors — and the
// result can keep growing.
func TestBuildMatchesIncrementalConstruction(t *testing.T) {
	names := []string{"A", "", "C", "D"}
	pairs := []Arc{{Head: 0, Tail: 1}, {Head: 2, Tail: 1}, {Head: 0, Tail: 1}, {Head: 1, Tail: 0}, {Head: 0, Tail: 2}}
	want := New()
	for _, n := range names {
		want.AddVertex(n)
	}
	for _, a := range pairs {
		want.MustAddArc(a.Head, a.Tail)
	}
	got, err := Build(names, pairs)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		if got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() {
			t.Fatalf("built %v, want %v", got, want)
		}
		for id := 0; id < want.NumArcs(); id++ {
			if got.Arc(id) != want.Arc(id) {
				t.Errorf("arc %d = %+v, want %+v", id, got.Arc(id), want.Arc(id))
			}
		}
		for _, v := range want.Vertices() {
			if got.Name(v) != want.Name(v) {
				t.Errorf("name %d = %q, want %q", v, got.Name(v), want.Name(v))
			}
			if !reflect.DeepEqual(got.Out(v), want.Out(v)) || !reflect.DeepEqual(got.In(v), want.In(v)) {
				t.Errorf("vertex %d adjacency out %v in %v, want out %v in %v",
					v, got.Out(v), got.In(v), want.Out(v), want.In(v))
			}
		}
	}
	check()
	// Growing one vertex's list must not spill into its neighbour's.
	for _, d := range []*Digraph{got, want} {
		d.MustAddArc(d.AddVertex("E"), 0)
		d.MustAddArc(0, 3)
		d.MustAddArc(3, 1)
	}
	check()

	if _, err := Build(names, []Arc{{Head: 0, Tail: 4}}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out-of-range arc: err = %v, want ErrVertexRange", err)
	}
	if _, err := Build(names, []Arc{{Head: 2, Tail: 2}}); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop: err = %v, want ErrSelfLoop", err)
	}
}

func TestString(t *testing.T) {
	s := cycle3().String()
	for _, want := range []string{"Alice->Bob", "Bob->Carol", "Carol->Alice"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestDOT(t *testing.T) {
	d := cycle3()
	dot := d.DOT("", map[Vertex]bool{0: true})
	for _, want := range []string{"digraph swap", `"Alice" [shape=doublecircle]`, `"Bob" [shape=circle]`, `"Alice" -> "Bob"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// randomDigraph builds a random simple digraph (no parallel arcs here;
// those are covered separately) for property tests.
func randomDigraph(r *rand.Rand, maxN int, density float64) *Digraph {
	n := 2 + r.Intn(maxN-1)
	d := New()
	for i := 0; i < n; i++ {
		d.AddVertex("")
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && r.Float64() < density {
				d.MustAddArc(Vertex(u), Vertex(v))
			}
		}
	}
	return d
}
