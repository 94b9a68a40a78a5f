package core

import (
	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// The waits-for digraph of Theorem 4.12. At any point in Phase One, W is
// the subdigraph of the transpose where (v, u) is an arc iff arc (u, v)
// has no published contract and v is a follower: v must wait for u's
// contract before it may publish its own leaving arcs. A follower can
// move only when it has indegree zero in W, so a cycle in W is a
// permanent deadlock — exactly what happens when the leaders are not a
// feedback vertex set.

// WaitsFor builds the current waits-for digraph from the set of arcs that
// already carry contracts. Vertex indexes match the swap digraph's.
func (s *Spec) WaitsFor(published map[int]bool) *digraph.Digraph {
	w := digraph.New()
	for _, v := range s.D.Vertices() {
		w.AddVertex(s.D.Name(v))
	}
	for _, a := range s.D.Arcs() {
		if published[a.ID] {
			continue
		}
		if s.IsLeader(a.Tail) {
			continue // leaders publish unconditionally; they wait for no one
		}
		w.MustAddArc(a.Tail, a.Head)
	}
	return w
}

// DeadlockCycle reports a waits-for cycle given the published-arc set, or
// nil when Phase One can still make progress. A non-nil cycle is
// permanent: no vertex on it will ever reach indegree zero.
func (s *Spec) DeadlockCycle(published map[int]bool) []digraph.Vertex {
	return s.WaitsFor(published).FindCycle()
}
