// Package digraph implements the directed-graph model underlying the swap
// protocol of Herlihy's "Atomic Cross-Chain Swaps" (PODC 2018), together
// with every graph algorithm the protocol and its analysis need: strong
// connectivity, acyclicity, feedback vertex sets, simple-path enumeration,
// and longest-path/diameter computation.
//
// A swap is a digraph D = (V, A): vertexes are parties, and an arc (u, v)
// is a proposed transfer of an asset from u (the head) to v (the tail) on a
// shared blockchain. Parallel arcs between the same pair of vertexes are
// allowed (the directed-multigraph extension from the paper's Section 5),
// so arcs carry identifiers and all per-arc state is keyed by arc ID.
package digraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Vertex identifies a party in the swap digraph. Vertexes are dense indexes
// starting at 0 in creation order.
type Vertex int

// Arc is a proposed asset transfer from Head to Tail.
type Arc struct {
	ID   int
	Head Vertex
	Tail Vertex
}

// Errors returned by graph construction.
var (
	ErrVertexRange = errors.New("digraph: vertex out of range")
	ErrSelfLoop    = errors.New("digraph: self-loops are not allowed")
)

// Digraph is a directed multigraph. The zero value is an empty graph ready
// to use; vertexes and arcs are added with AddVertex and AddArc.
type Digraph struct {
	names []string
	arcs  []Arc
	out   [][]int // out[v] lists IDs of arcs with Head == v
	in    [][]int // in[v] lists IDs of arcs with Tail == v
}

// New returns an empty digraph.
func New() *Digraph { return &Digraph{} }

// FromArcs builds a digraph with n anonymous vertexes and one arc per
// (head, tail) pair, in order. It panics on invalid input; it is intended
// for tests and generators where the input is known-good.
func FromArcs(n int, pairs ...[2]int) *Digraph {
	d := New()
	for i := 0; i < n; i++ {
		d.AddVertex("")
	}
	for _, p := range pairs {
		if _, err := d.AddArc(Vertex(p[0]), Vertex(p[1])); err != nil {
			panic(fmt.Sprintf("digraph.FromArcs(%v): %v", p, err))
		}
	}
	return d
}

// Build returns the digraph over the given vertex names (a default name is
// chosen for each empty one) with one arc per pair, IDs in pair order —
// what AddVertex and AddArc would build, in a constant number of
// allocations: every adjacency list is cut to its exact degree from one
// backing array. The result can still grow through AddVertex and AddArc.
func Build(names []string, pairs []Arc) (*Digraph, error) {
	n := len(names)
	d := &Digraph{
		names: make([]string, n),
		arcs:  make([]Arc, len(pairs)),
	}
	for v, name := range names {
		d.names[v] = nameOr(name, Vertex(v))
	}
	// degree[v] and degree[n+v] count v's leaving and entering arcs.
	degree := make([]int, 2*n)
	for id, a := range pairs {
		if err := d.checkArc(a.Head, a.Tail); err != nil {
			return nil, err
		}
		d.arcs[id] = Arc{ID: id, Head: a.Head, Tail: a.Tail}
		degree[a.Head]++
		degree[n+int(a.Tail)]++
	}
	lists := make([][]int, 2*n)
	backing := make([]int, 2*len(pairs))
	for i, deg := range degree {
		lists[i], backing = backing[:0:deg], backing[deg:]
	}
	d.out, d.in = lists[:n:n], lists[n:]
	for id, a := range d.arcs {
		d.out[a.Head] = append(d.out[a.Head], id)
		d.in[a.Tail] = append(d.in[a.Tail], id)
	}
	return d, nil
}

// AddVertex adds a vertex with the given display name (a default name is
// chosen when empty) and returns its index.
func (d *Digraph) AddVertex(name string) Vertex {
	v := Vertex(len(d.names))
	d.names = append(d.names, nameOr(name, v))
	d.out = append(d.out, nil)
	d.in = append(d.in, nil)
	return v
}

// AddArc adds an arc from head to tail and returns its ID. Parallel arcs
// are allowed; self-loops are not (a party does not transfer to itself).
func (d *Digraph) AddArc(head, tail Vertex) (int, error) {
	if err := d.checkArc(head, tail); err != nil {
		return 0, err
	}
	id := len(d.arcs)
	d.arcs = append(d.arcs, Arc{ID: id, Head: head, Tail: tail})
	d.out[head] = append(d.out[head], id)
	d.in[tail] = append(d.in[tail], id)
	return id, nil
}

// MustAddArc is AddArc that panics on error, for tests and generators.
func (d *Digraph) MustAddArc(head, tail Vertex) int {
	id, err := d.AddArc(head, tail)
	if err != nil {
		panic(err)
	}
	return id
}

// nameOr returns name, or v's default display name when it is empty.
func nameOr(name string, v Vertex) string {
	if name == "" {
		return "v" + strconv.Itoa(int(v))
	}
	return name
}

// checkArc rejects arcs with an end outside the vertex set and self-loops.
func (d *Digraph) checkArc(head, tail Vertex) error {
	if !d.valid(head) || !d.valid(tail) {
		return fmt.Errorf("%w: arc (%d, %d) with %d vertexes", ErrVertexRange, head, tail, len(d.names))
	}
	if head == tail {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, head)
	}
	return nil
}

func (d *Digraph) valid(v Vertex) bool { return v >= 0 && int(v) < len(d.names) }

// NumVertices reports the number of vertexes.
func (d *Digraph) NumVertices() int { return len(d.names) }

// NumArcs reports the number of arcs.
func (d *Digraph) NumArcs() int { return len(d.arcs) }

// Arc returns the arc with the given ID. It panics if the ID is out of
// range, mirroring slice indexing.
func (d *Digraph) Arc(id int) Arc { return d.arcs[id] }

// Arcs returns a copy of all arcs in ID order.
func (d *Digraph) Arcs() []Arc {
	out := make([]Arc, len(d.arcs))
	copy(out, d.arcs)
	return out
}

// Out returns a copy of the IDs of arcs leaving v.
func (d *Digraph) Out(v Vertex) []int {
	out := make([]int, len(d.out[v]))
	copy(out, d.out[v])
	return out
}

// In returns a copy of the IDs of arcs entering v.
func (d *Digraph) In(v Vertex) []int {
	in := make([]int, len(d.in[v]))
	copy(in, d.in[v])
	return in
}

// OutDegree reports the number of arcs leaving v.
func (d *Digraph) OutDegree(v Vertex) int { return len(d.out[v]) }

// InDegree reports the number of arcs entering v.
func (d *Digraph) InDegree(v Vertex) int { return len(d.in[v]) }

// Name returns the display name of v.
func (d *Digraph) Name(v Vertex) string { return d.names[v] }

// VertexByName returns the first vertex with the given display name.
func (d *Digraph) VertexByName(name string) (Vertex, bool) {
	for i, n := range d.names {
		if n == name {
			return Vertex(i), true
		}
	}
	return 0, false
}

// Vertices returns all vertexes in index order.
func (d *Digraph) Vertices() []Vertex {
	out := make([]Vertex, len(d.names))
	for i := range out {
		out[i] = Vertex(i)
	}
	return out
}

// HasArcBetween reports whether at least one arc runs from head to tail.
func (d *Digraph) HasArcBetween(head, tail Vertex) bool {
	if !d.valid(head) || !d.valid(tail) {
		return false
	}
	for _, id := range d.out[head] {
		if d.arcs[id].Tail == tail {
			return true
		}
	}
	return false
}

// ArcsBetween returns the IDs of all arcs from head to tail, in ID order.
func (d *Digraph) ArcsBetween(head, tail Vertex) []int {
	var ids []int
	for _, id := range d.out[head] {
		if d.arcs[id].Tail == tail {
			ids = append(ids, id)
		}
	}
	return ids
}

// Transpose returns the digraph with every arc reversed. Arc IDs are
// preserved, so per-arc state carries over between D and its transpose —
// the protocol's Phase Two disseminates secrets along the transpose.
func (d *Digraph) Transpose() *Digraph {
	t := New()
	for _, n := range d.names {
		t.AddVertex(n)
	}
	t.arcs = make([]Arc, len(d.arcs))
	for _, a := range d.arcs {
		t.arcs[a.ID] = Arc{ID: a.ID, Head: a.Tail, Tail: a.Head}
		t.out[a.Tail] = append(t.out[a.Tail], a.ID)
		t.in[a.Head] = append(t.in[a.Head], a.ID)
	}
	return t
}

// Clone returns a deep copy of the digraph.
func (d *Digraph) Clone() *Digraph {
	c := &Digraph{
		names: append([]string(nil), d.names...),
		arcs:  append([]Arc(nil), d.arcs...),
		out:   make([][]int, len(d.out)),
		in:    make([][]int, len(d.in)),
	}
	for v := range d.out {
		c.out[v] = append([]int(nil), d.out[v]...)
		c.in[v] = append([]int(nil), d.in[v]...)
	}
	return c
}

// WithoutVertices returns the subdigraph induced by deleting the given
// vertexes: the vertex set is unchanged (indexes remain stable) but every
// arc incident to a deleted vertex is removed. Arc IDs are renumbered.
func (d *Digraph) WithoutVertices(deleted map[Vertex]bool) *Digraph {
	s := New()
	for _, n := range d.names {
		s.AddVertex(n)
	}
	for _, a := range d.arcs {
		if deleted[a.Head] || deleted[a.Tail] {
			continue
		}
		s.MustAddArc(a.Head, a.Tail)
	}
	return s
}

// StructuralEqual reports whether two digraphs have the same vertex count
// and the same multiset of (head, tail) arcs, ignoring names and arc IDs.
func StructuralEqual(a, b *Digraph) bool {
	if a == b {
		return true
	}
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		return false
	}
	ka, kb := a.sortedPairs(), b.sortedPairs()
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// sortedPairs returns the (head, tail) pair of every arc, sorted, with a
// parallel arc appearing once per copy.
func (d *Digraph) sortedPairs() [][2]Vertex {
	ps := make([][2]Vertex, len(d.arcs))
	for i, a := range d.arcs {
		ps[i] = [2]Vertex{a.Head, a.Tail}
	}
	slices.SortFunc(ps, func(x, y [2]Vertex) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	return ps
}

// String renders the digraph compactly, e.g. "D(3 vertexes: A->B B->C C->A)".
func (d *Digraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "D(%d vertexes:", len(d.names))
	for _, a := range d.arcs {
		fmt.Fprintf(&b, " %s->%s", d.names[a.Head], d.names[a.Tail])
	}
	b.WriteString(")")
	return b.String()
}
