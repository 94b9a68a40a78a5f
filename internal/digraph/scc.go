package digraph

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
	n := d.NumVertices()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp = make([]int, n)
	for i := range index {
		index[i] = unvisited
	}
	// Iterative DFS frames: vertex plus position in its out-arc list.
	type frame struct {
		v   Vertex
		arc int
	}
	var (
		stack   = make([]Vertex, 0, n)
		frames  = make([]frame, 0, n)
		counter int
	)
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: Vertex(start)})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, Vertex(start))
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.arc < len(d.out[v]) {
				w := d.arcs[d.out[v][f.arc]].Tail
				f.arc++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
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
					onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
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
