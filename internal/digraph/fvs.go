package digraph

// Feedback vertex sets.
//
// The protocol's leaders L must form a feedback vertex set: deleting L
// leaves D acyclic (Theorem 4.12 shows this is necessary for any uniform
// hashed-timelock protocol). Finding a minimum FVS is NP-complete (Karp),
// so we provide an exact solver for the small digraphs real swaps use, and
// a greedy heuristic with minimalization for larger graphs. The paper
// mentions a 2-approximation for the undirected problem; no constant-factor
// approximation is known for directed FVS, so the heuristic carries no
// worst-case guarantee — tests quantify its quality against the exact
// solver instead (experiment E14).

// IsFeedbackVertexSet reports whether deleting the given vertexes leaves
// the digraph acyclic.
func (d *Digraph) IsFeedbackVertexSet(set []Vertex) bool {
	for _, v := range set {
		if !d.valid(v) {
			return false
		}
	}
	return d.newFVSScratch().isFVS(d, set)
}

// fvsScratch is the working memory of one feedback-vertex-set test,
// reusable across tests on the same digraph: a deletion mask plus the
// in-degree and worklist arrays of Kahn's algorithm.
type fvsScratch struct {
	deleted []bool
	indeg   []int
	ready   []Vertex
}

func (d *Digraph) newFVSScratch() *fvsScratch {
	n := d.NumVertices()
	return &fvsScratch{
		deleted: make([]bool, n),
		indeg:   make([]int, n),
		ready:   make([]Vertex, 0, n),
	}
}

// isFVS reports whether d minus the (valid) vertexes of set is acyclic:
// Kahn's algorithm over the arcs with neither end masked, no subdigraph
// built. The mask is clear on entry and on return.
func (s *fvsScratch) isFVS(d *Digraph, set []Vertex) bool {
	for _, v := range set {
		s.deleted[v] = true
	}
	clear(s.indeg)
	for _, a := range d.arcs {
		if !s.deleted[a.Head] && !s.deleted[a.Tail] {
			s.indeg[a.Tail]++
		}
	}
	ready, left := s.ready[:0], 0
	for v, del := range s.deleted {
		if del {
			continue
		}
		left++
		if s.indeg[v] == 0 {
			ready = append(ready, Vertex(v))
		}
	}
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		left--
		for _, id := range d.out[v] {
			w := d.arcs[id].Tail
			if s.deleted[w] {
				continue
			}
			if s.indeg[w]--; s.indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	for _, v := range set {
		s.deleted[v] = false
	}
	return left == 0
}

// cycleVertices returns the sorted vertexes that lie on at least one cycle:
// exactly the vertexes of non-trivial strongly connected components. Only
// these are candidates for a minimum FVS.
func (d *Digraph) cycleVertices() []Vertex {
	comp, count := d.SCCIndex()
	size := make([]int, count)
	for _, c := range comp {
		size[c]++
	}
	// A singleton component is on a cycle only via a self-loop, which this
	// package forbids, so it never qualifies.
	var out []Vertex
	for v, c := range comp {
		if size[c] > 1 {
			out = append(out, Vertex(v))
		}
	}
	return out
}

// ExactMinFVS returns a minimum feedback vertex set, computed by
// enumerating candidate subsets in order of size. Candidates are restricted
// to vertexes on cycles. The empty set is returned for acyclic digraphs.
// Cost is exponential in the candidate count; it is intended for the small
// digraphs of real swaps and for grading the heuristic.
func (d *Digraph) ExactMinFVS() []Vertex {
	return d.exactMinFVS(d.cycleVertices())
}

// exactMinFVS is ExactMinFVS given the digraph's cycle vertexes.
func (d *Digraph) exactMinFVS(cands []Vertex) []Vertex {
	if len(cands) == 0 {
		return []Vertex{} // acyclic
	}
	scratch := d.newFVSScratch()
	idxBuf := make([]int, len(cands))
	setBuf := make([]Vertex, len(cands))
	// Enumerate subsets of cands by increasing size.
	for k := 1; k <= len(cands); k++ {
		idx, set := idxBuf[:k], setBuf[:k:k]
		for i := range idx {
			idx[i] = i
		}
		for {
			for i, j := range idx {
				set[i] = cands[j]
			}
			if scratch.isFVS(d, set) {
				return set
			}
			// Advance the combination.
			i := k - 1
			for i >= 0 && idx[i] == len(cands)-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	// Unreachable: the full candidate set is always an FVS.
	return cands
}

// GreedyFVS returns a feedback vertex set found by repeatedly deleting the
// vertex with the largest in-degree × out-degree product among vertexes
// still on cycles, then minimalizing the result (dropping members that are
// not needed). The result is always a valid FVS but not necessarily
// minimum.
func (d *Digraph) GreedyFVS() []Vertex {
	var chosen []Vertex
	deleted := make(map[Vertex]bool)
	cur := d.Clone()
	for {
		sub := cur.WithoutVertices(deleted)
		if sub.IsAcyclic() {
			break
		}
		// Restrict attention to vertexes on cycles of the remaining graph.
		best := Vertex(-1)
		bestScore := -1
		for _, v := range sub.cycleVertices() {
			score := sub.InDegree(v) * sub.OutDegree(v)
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		deleted[best] = true
		chosen = append(chosen, best)
	}
	// Minimalize: drop any member whose removal keeps the set an FVS.
	// Iterate in reverse so early (high-value) picks are kept.
	for i := len(chosen) - 1; i >= 0; i-- {
		trial := make([]Vertex, 0, len(chosen)-1)
		trial = append(trial, chosen[:i]...)
		trial = append(trial, chosen[i+1:]...)
		if d.IsFeedbackVertexSet(trial) {
			chosen = trial
		}
	}
	sortVertices(chosen)
	return chosen
}

// MinFVS returns a small feedback vertex set: exact when the digraph has at
// most MaxExactVertices vertexes on cycles, greedy otherwise. The second
// result reports whether the set is provably minimum.
func (d *Digraph) MinFVS() ([]Vertex, bool) {
	if cands := d.cycleVertices(); len(cands) <= MaxExactVertices {
		return d.exactMinFVS(cands), true
	}
	return d.GreedyFVS(), false
}
