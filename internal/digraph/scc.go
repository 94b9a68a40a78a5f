package digraph

import "slices"

// SCCs returns the strongly connected components of the digraph using an
// iterative Tarjan algorithm. Components are returned in reverse
// topological order of the condensation (a component appears before the
// components it can reach); vertexes within a component are sorted.
func (d *Digraph) SCCs() [][]Vertex {
	comp, k := d.SCCIndex()
	// Cut every component to its exact size from one backing array; filling
	// in vertex order leaves each one sorted.
	size := make([]int, k)
	for _, c := range comp {
		size[c]++
	}
	comps := make([][]Vertex, k)
	backing := make([]Vertex, len(comp))
	for c, n := range size {
		comps[c], backing = backing[:0:n], backing[n:]
	}
	for v, c := range comp {
		comps[c] = append(comps[c], Vertex(v))
	}
	return comps
}

// SCCIndex returns, for every vertex, the index of its strongly connected
// component in SCCs order, and the number of components.
func (d *Digraph) SCCIndex() (comp []int, count int) {
	return new(SCCScratch).Components(d.NumVertices(), d.arcs)
}

// SCCScratch is the working memory of Components, kept from one call to
// the next: a caller that takes components of many small arc lists (the
// clearing engine's partitioner, once per fixpoint iteration) allocates
// only while the lists are still growing. The zero value is ready to use;
// a scratch is not safe for concurrent use.
type SCCScratch struct {
	// start and succ are the arc list in compressed-row form: the
	// successors of v are succ[start[v]:start[v+1]], in arc order.
	start, succ      []int
	index, low, comp []int
	onStack          []bool
	stack            []Vertex
	frames           []sccFrame
}

// sccFrame is one iterative-DFS frame: a vertex and the position of the
// next successor to follow.
type sccFrame struct {
	v    Vertex
	next int
}

// Components is SCCIndex for a bare arc list over vertexes 0..n-1, no
// Digraph built: comp[v] is the index of v's strongly connected component
// (iterative Tarjan; components number in reverse topological order of
// the condensation, exactly as SCCIndex numbers them for the digraph with
// these arcs in this order) and count is the number of components. comp
// aliases the scratch and is valid until the next call. Arc ends must lie
// in [0, n), as with slice indexing.
func (s *SCCScratch) Components(n int, arcs []Arc) (comp []int, count int) {
	s.start = slices.Grow(s.start[:0], n+1)[:n+1]
	s.succ = slices.Grow(s.succ[:0], len(arcs))[:len(arcs)]
	s.index = slices.Grow(s.index[:0], n)[:n]
	s.low = slices.Grow(s.low[:0], n)[:n]
	s.comp = slices.Grow(s.comp[:0], n)[:n]
	s.onStack = slices.Grow(s.onStack[:0], n)[:n]
	clear(s.start)
	clear(s.onStack)
	start, succ, index, low := s.start, s.succ, s.index, s.low
	comp = s.comp

	// Counting sort by head keeps each vertex's successors in arc order.
	for _, a := range arcs {
		start[a.Head+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	for _, a := range arcs {
		succ[start[a.Head]] = int(a.Tail)
		start[a.Head]++
	}
	for v := n; v > 0; v-- {
		start[v] = start[v-1]
	}
	start[0] = 0

	const unvisited = -1
	for i := range index {
		index[i] = unvisited
	}
	stack, frames, counter := s.stack[:0], s.frames[:0], 0
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], sccFrame{v: Vertex(root), next: start[root]})
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, Vertex(root))
		s.onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.next < start[v+1] {
				w := succ[f.next]
				f.next++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, Vertex(w))
					s.onStack[w] = true
					frames = append(frames, sccFrame{v: Vertex(w), next: start[w]})
				} else if s.onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// All successors explored: close the frame.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					s.onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	s.stack, s.frames = stack, frames
	return comp, count
}

// StronglyConnected reports whether every vertex is reachable from every
// other. Graphs with zero or one vertex are trivially strongly connected.
func (d *Digraph) StronglyConnected() bool {
	if d.NumVertices() <= 1 {
		return true
	}
	_, count := d.SCCIndex()
	return count == 1
}

// ReachableFrom returns the set of vertexes reachable from start (including
// start itself) via a breadth-first search.
func (d *Digraph) ReachableFrom(start Vertex) map[Vertex]bool {
	seen := map[Vertex]bool{start: true}
	queue := []Vertex{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range d.out[v] {
			w := d.arcs[id].Tail
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// Reachable reports whether there is a directed path from u to v.
// Every vertex is reachable from itself.
func (d *Digraph) Reachable(u, v Vertex) bool {
	return d.ReachableFrom(u)[v]
}

func sortVertices(vs []Vertex) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
