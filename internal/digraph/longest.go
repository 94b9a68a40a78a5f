package digraph

// Longest-simple-path machinery.
//
// The paper's timeouts are expressed in terms of diam(D) — the length of
// the longest (simple) path between any two vertexes — and D(v, l), the
// longest path from a vertex to a leader. Longest simple path is NP-hard
// on general digraphs, so this file provides:
//
//   - an exact bitmask dynamic program for graphs with at most
//     MaxExactVertices vertexes (every graph in the paper, and every graph
//     a realistic swap would use — swaps are small multi-party deals);
//   - safe upper bounds for larger graphs. The protocol remains correct
//     with any consistently-used upper bound: deadlines stretch but every
//     safety and liveness argument still goes through.
//
// The single-leader special case (Section 4.6) needs D(v, leader) where the
// follower subdigraph is acyclic; LongestPathsToSink computes that exactly
// in polynomial time at any scale.

// MaxExactVertices is the largest vertex count for which the exact
// longest-path dynamic program is attempted. Beyond it the O(2^n·m)
// state space stops being laptop-friendly.
const MaxExactVertices = 15

// LongestPathsFrom returns, for every vertex v, the length (arc count) of
// the longest simple path from start to v, with -1 for unreachable
// vertexes and 0 for start itself. The second result reports whether the
// values are exact: when the graph has more than MaxExactVertices vertexes
// the function falls back to the safe upper bound n-1 for every reachable
// vertex.
func (d *Digraph) LongestPathsFrom(start Vertex) ([]int, bool) {
	n := d.NumVertices()
	best := make([]int, n)
	for i := range best {
		best[i] = -1
	}
	if !d.valid(start) {
		return best, true
	}
	if n > MaxExactVertices {
		for v := range best {
			if d.Reachable(start, Vertex(v)) {
				best[v] = n - 1
			}
		}
		best[start] = n - 1
		return best, false
	}
	// dp[mask] is the set of end vertexes reachable by a simple path from
	// start visiting exactly the vertexes in mask. Masks grow monotonically,
	// so iterating masks in increasing order is a valid evaluation order.
	size := 1 << n
	dp := make([]uint32, size)
	startBit := uint32(1) << uint(start)
	dp[startBit] = startBit
	best[start] = 0
	for mask := 1; mask < size; mask++ {
		ends := dp[mask]
		if ends == 0 {
			continue
		}
		pathLen := popcount(uint32(mask)) - 1
		for v := 0; v < n; v++ {
			if ends&(1<<uint(v)) == 0 {
				continue
			}
			if pathLen > best[v] {
				best[v] = pathLen
			}
			for _, id := range d.out[v] {
				w := d.arcs[id].Tail
				wBit := 1 << uint(w)
				if mask&wBit != 0 {
					continue
				}
				dp[mask|wBit] |= uint32(wBit)
			}
		}
	}
	return best, true
}

// LongestPathLen returns the length of the longest simple path from u to v
// (-1 when v is unreachable from u) and whether the value is exact.
func (d *Digraph) LongestPathLen(u, v Vertex) (int, bool) {
	best, exact := d.LongestPathsFrom(u)
	if !d.valid(v) {
		return -1, exact
	}
	return best[v], exact
}

// Diameter returns the length of the longest simple path between any two
// vertexes and whether the value is exact. For graphs larger than
// MaxExactVertices it returns the safe upper bound n-1.
func (d *Digraph) Diameter() (int, bool) {
	n := d.NumVertices()
	if n == 0 {
		return 0, true
	}
	if n > MaxExactVertices {
		return n - 1, false
	}
	// Start-free DP: dp[mask] = end vertexes of simple paths visiting
	// exactly mask, over every possible starting vertex.
	size := 1 << n
	dp := make([]uint32, size)
	for v := 0; v < n; v++ {
		dp[1<<uint(v)] = 1 << uint(v)
	}
	diam := 0
	for mask := 1; mask < size; mask++ {
		ends := dp[mask]
		if ends == 0 {
			continue
		}
		pathLen := popcount(uint32(mask)) - 1
		if pathLen > diam {
			diam = pathLen
		}
		for v := 0; v < n; v++ {
			if ends&(1<<uint(v)) == 0 {
				continue
			}
			for _, id := range d.out[v] {
				w := d.arcs[id].Tail
				wBit := 1 << uint(w)
				if mask&wBit != 0 {
					continue
				}
				dp[mask|wBit] |= uint32(wBit)
			}
		}
	}
	return diam, true
}

// DiameterBound returns an upper bound on diam(D): the exact diameter when
// the graph is small enough, n-1 otherwise. All parties to a swap must use
// the same bound; Spec pins it.
func (d *Digraph) DiameterBound() int {
	b, _ := d.Diameter()
	return b
}

// LongestPathsToSink computes, for every vertex v, the longest path length
// from v to sink under the assumption that removing sink's leaving arcs
// makes the digraph acyclic — exactly the single-leader situation of
// Section 4.6, where the subdigraph of followers is acyclic and every cycle
// passes through the leader. Paths may not revisit sink, so the computation
// runs on the digraph with sink's leaving arcs removed, which must be a
// DAG. It returns ok=false (and no values) if that graph still has a cycle,
// i.e. {sink} is not a feedback vertex set.
//
// The result is exact and polynomial at any graph size, unlike the general
// bitmask DP.
func (d *Digraph) LongestPathsToSink(sink Vertex) ([]int, bool) {
	if !d.valid(sink) {
		return nil, false
	}
	// Memoized depth-first search over every arc not leaving sink; a vertex
	// met again while still on the stack closes a cycle that avoids sink.
	const (
		unseen = iota
		onStack
		done
	)
	n := d.NumVertices()
	dist := make([]int, n)
	state := make([]uint8, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[sink], state[sink] = 0, done
	// stack holds the path under exploration; next[v] is how many of v's
	// leaving arcs have been followed.
	stack := make([]Vertex, 0, n)
	next := make([]int, n)
	for root := 0; root < n; root++ {
		if state[root] != unseen {
			continue
		}
		stack = append(stack, Vertex(root))
		state[root] = onStack
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if next[v] == len(d.out[v]) {
				state[v] = done
				stack = stack[:len(stack)-1]
				continue
			}
			w := d.arcs[d.out[v][next[v]]].Tail
			switch state[w] {
			case onStack:
				return nil, false
			case unseen:
				stack = append(stack, w)
				state[w] = onStack
				continue // v's arc to w is scored once w is done
			}
			next[v]++
			if dist[w] >= 0 && dist[w]+1 > dist[v] {
				dist[v] = dist[w] + 1
			}
		}
	}
	return dist, true
}

func popcount(x uint32) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}
