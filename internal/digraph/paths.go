package digraph

import "strconv"

// Path is a sequence of vertexes connected by arcs, following the paper's
// definition: the vertexes of a simple path are distinct. The length of a
// path is its number of arcs, len(p)-1.
type Path []Vertex

// Len returns the number of arcs on the path (|p| in the paper). The empty
// and single-vertex paths have length 0.
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// First returns the starting vertex; it panics on an empty path.
func (p Path) First() Vertex { return p[0] }

// Last returns the final vertex; it panics on an empty path.
func (p Path) Last() Vertex { return p[len(p)-1] }

// Contains reports whether v appears on the path.
func (p Path) Contains(v Vertex) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// Prepend returns the path v + p. This is the hashkey-extension operation:
// a party prepends itself before re-presenting a secret on its entering
// arcs. The receiver is not modified.
func (p Path) Prepend(v Vertex) Path {
	out := make(Path, 0, len(p)+1)
	out = append(out, v)
	out = append(out, p...)
	return out
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// String renders the path as "A>B>C" using vertex indexes.
func (p Path) String() string {
	var scratch [32]byte
	return string(p.Append(scratch[:0]))
}

// Append appends the path's String form to buf.
func (p Path) Append(buf []byte) []byte {
	for i, v := range p {
		if i > 0 {
			buf = append(buf, '>')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return buf
}

// IsPath reports whether p is a valid simple path in d: non-empty, all
// vertexes in range and distinct, with an arc between each consecutive
// pair. A single vertex is a valid (degenerate) path — the paper's leaders
// present their own secrets with such a path.
func (d *Digraph) IsPath(p Path) bool {
	if len(p) == 0 {
		return false
	}
	seen := make(map[Vertex]bool, len(p))
	for _, v := range p {
		if !d.valid(v) || seen[v] {
			return false
		}
		seen[v] = true
	}
	for i := 0; i+1 < len(p); i++ {
		if !d.HasArcBetween(p[i], p[i+1]) {
			return false
		}
	}
	return true
}

// AllSimplePaths returns every simple path from 'from' to 'to', in
// deterministic (lexicographic by vertex index) order. If limit > 0, at
// most limit paths are returned. The single-vertex path is returned when
// from == to.
func (d *Digraph) AllSimplePaths(from, to Vertex, limit int) []Path {
	var (
		out  []Path
		cur  Path
		seen = make([]bool, d.NumVertices())
	)
	// Successor vertexes in sorted order for determinism.
	succ := func(v Vertex) []Vertex {
		var ws []Vertex
		for _, id := range d.out[v] {
			w := d.arcs[id].Tail
			dup := false
			for _, x := range ws {
				if x == w {
					dup = true
					break
				}
			}
			if !dup {
				ws = append(ws, w)
			}
		}
		sortVertices(ws)
		return ws
	}
	var dfs func(v Vertex) bool // returns false when the limit was reached
	dfs = func(v Vertex) bool {
		cur = append(cur, v)
		seen[v] = true
		defer func() {
			cur = cur[:len(cur)-1]
			seen[v] = false
		}()
		if v == to {
			out = append(out, cur.Clone())
			return limit <= 0 || len(out) < limit
		}
		for _, w := range succ(v) {
			if seen[w] {
				continue
			}
			if !dfs(w) {
				return false
			}
		}
		return true
	}
	if d.valid(from) && d.valid(to) {
		dfs(from)
	}
	return out
}
