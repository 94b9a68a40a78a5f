// Package graphgen builds the swap-digraph families used throughout the
// tests, examples, and experiments: the paper's own figures (the three-way
// swap of Figure 1, the two-leader triangle of Figures 7 and 8), classic
// families for scaling sweeps (directed cycles, bidirectional cycles,
// cliques, flowers), seeded random strongly-connected digraphs, and the
// counterexample shapes used by the impossibility experiments.
package graphgen

import (
	"fmt"
	"math/rand"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// ThreeWay returns the paper's Figure 1 digraph: Alice -> Bob (alt-coins),
// Bob -> Carol (bitcoins), Carol -> Alice (the Cadillac title). Alice is
// the natural single leader.
func ThreeWay() *digraph.Digraph {
	d := digraph.New()
	a := d.AddVertex("Alice")
	b := d.AddVertex("Bob")
	c := d.AddVertex("Carol")
	d.MustAddArc(a, b)
	d.MustAddArc(b, c)
	d.MustAddArc(c, a)
	return d
}

// TwoLeaderTriangle returns the complete digraph on three vertexes used in
// Figures 6 (right), 7, and 8: every follower subdigraph of a single vertex
// contains a 2-cycle, so any feedback vertex set needs two vertexes.
func TwoLeaderTriangle() *digraph.Digraph {
	d := digraph.New()
	a := d.AddVertex("A")
	b := d.AddVertex("B")
	c := d.AddVertex("C")
	d.MustAddArc(a, b)
	d.MustAddArc(b, a)
	d.MustAddArc(b, c)
	d.MustAddArc(c, b)
	d.MustAddArc(c, a)
	d.MustAddArc(a, c)
	return d
}

// Cycle returns the directed cycle on n >= 2 vertexes: the canonical
// single-leader swap ring. Diameter n-1.
func Cycle(n int) *digraph.Digraph {
	if n < 2 {
		panic(fmt.Sprintf("graphgen.Cycle: need n >= 2, got %d", n))
	}
	d := digraph.New()
	for i := 0; i < n; i++ {
		d.AddVertex(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < n; i++ {
		d.MustAddArc(digraph.Vertex(i), digraph.Vertex((i+1)%n))
	}
	return d
}

// BidirCycle returns the cycle on n >= 3 vertexes with arcs in both
// directions: a 2|V|-arc strongly connected digraph whose minimum FVS
// grows with n (every 2-cycle must be broken).
func BidirCycle(n int) *digraph.Digraph {
	if n < 3 {
		panic(fmt.Sprintf("graphgen.BidirCycle: need n >= 3, got %d", n))
	}
	d := digraph.New()
	for i := 0; i < n; i++ {
		d.AddVertex(fmt.Sprintf("P%d", i))
	}
	for i := 0; i < n; i++ {
		next := digraph.Vertex((i + 1) % n)
		d.MustAddArc(digraph.Vertex(i), next)
		d.MustAddArc(next, digraph.Vertex(i))
	}
	return d
}

// Clique returns the complete digraph on n >= 2 vertexes: every ordered
// pair is an arc. Minimum FVS has n-1 vertexes; diameter n-1.
func Clique(n int) *digraph.Digraph {
	if n < 2 {
		panic(fmt.Sprintf("graphgen.Clique: need n >= 2, got %d", n))
	}
	d := digraph.New()
	for i := 0; i < n; i++ {
		d.AddVertex(fmt.Sprintf("P%d", i))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				d.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
			}
		}
	}
	return d
}

// Flower returns k >= 1 directed petal cycles, each with petalLen >= 1
// internal vertexes, all sharing a single center vertex. The center alone
// is a feedback vertex set, which makes flowers the canonical single-leader
// family of Section 4.6 (Figure 6, left, is the k=1 case).
func Flower(k, petalLen int) *digraph.Digraph {
	if k < 1 || petalLen < 1 {
		panic(fmt.Sprintf("graphgen.Flower: need k, petalLen >= 1, got %d, %d", k, petalLen))
	}
	d := digraph.New()
	center := d.AddVertex("L")
	for p := 0; p < k; p++ {
		prev := center
		for i := 0; i < petalLen; i++ {
			v := d.AddVertex(fmt.Sprintf("P%d.%d", p, i))
			d.MustAddArc(prev, v)
			prev = v
		}
		d.MustAddArc(prev, center)
	}
	return d
}

// LeaderDAG returns a random single-leader digraph on n >= 2 vertexes: the
// followers 1..n-1 carry a random DAG (arc i -> j for i < j with
// probability density), the leader 0 feeds every follower no follower
// feeds, and every follower that feeds no follower feeds the leader — each
// other leader arc exists with probability density. It is strongly
// connected and {0} is a feedback vertex set, so it is the general shape
// of Section 4.6's digraphs (Flower is the petals-only case). The result is
// deterministic for a given (n, density, seed).
func LeaderDAG(n int, density float64, seed int64) *digraph.Digraph {
	if n < 2 {
		panic(fmt.Sprintf("graphgen.LeaderDAG: need n >= 2, got %d", n))
	}
	r := rand.New(rand.NewSource(seed))
	d := digraph.New()
	d.AddVertex("L")
	for i := 1; i < n; i++ {
		d.AddVertex(fmt.Sprintf("F%d", i))
	}
	fed, feeds := make([]bool, n), make([]bool, n)
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				d.MustAddArc(digraph.Vertex(i), digraph.Vertex(j))
				feeds[i], fed[j] = true, true
			}
		}
	}
	for v := 1; v < n; v++ {
		if !fed[v] || r.Float64() < density {
			d.MustAddArc(0, digraph.Vertex(v))
		}
		if !feeds[v] || r.Float64() < density {
			d.MustAddArc(digraph.Vertex(v), 0)
		}
	}
	return d
}

// RandomStronglyConnected returns a random strongly connected digraph on n
// vertexes: a random Hamiltonian cycle guarantees strong connectivity, and
// every other ordered pair becomes an arc with probability density. The
// result is deterministic for a given (n, density, seed).
func RandomStronglyConnected(n int, density float64, seed int64) *digraph.Digraph {
	if n < 2 {
		panic(fmt.Sprintf("graphgen.RandomStronglyConnected: need n >= 2, got %d", n))
	}
	r := rand.New(rand.NewSource(seed))
	d := digraph.New()
	for i := 0; i < n; i++ {
		d.AddVertex(fmt.Sprintf("P%d", i))
	}
	perm := r.Perm(n)
	onCycle := make(map[[2]int]bool, n)
	for i := 0; i < n; i++ {
		u, v := perm[i], perm[(i+1)%n]
		d.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
		onCycle[[2]int{u, v}] = true
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || onCycle[[2]int{u, v}] {
				continue
			}
			if r.Float64() < density {
				d.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
			}
		}
	}
	return d
}

// NotStronglyConnected returns the Lemma 3.4 counterexample shape: two
// directed cycles X = {0..nx-1} and Y = {nx..nx+ny-1} joined by a single
// one-way arc from X to Y. Y cannot reach X, so coalition X can free-ride.
func NotStronglyConnected(nx, ny int) *digraph.Digraph {
	if nx < 2 || ny < 2 {
		panic(fmt.Sprintf("graphgen.NotStronglyConnected: need nx, ny >= 2, got %d, %d", nx, ny))
	}
	d := digraph.New()
	for i := 0; i < nx; i++ {
		d.AddVertex(fmt.Sprintf("X%d", i))
	}
	for i := 0; i < ny; i++ {
		d.AddVertex(fmt.Sprintf("Y%d", i))
	}
	for i := 0; i < nx; i++ {
		d.MustAddArc(digraph.Vertex(i), digraph.Vertex((i+1)%nx))
	}
	for i := 0; i < ny; i++ {
		d.MustAddArc(digraph.Vertex(nx+i), digraph.Vertex(nx+(i+1)%ny))
	}
	d.MustAddArc(digraph.Vertex(0), digraph.Vertex(nx))
	return d
}

// MultiArcPair returns a two-party swap where Alice transfers k parallel
// assets to Bob and Bob transfers one back — the directed-multigraph
// extension mentioned in Section 5.
func MultiArcPair(k int) *digraph.Digraph {
	if k < 1 {
		panic(fmt.Sprintf("graphgen.MultiArcPair: need k >= 1, got %d", k))
	}
	d := digraph.New()
	a := d.AddVertex("Alice")
	b := d.AddVertex("Bob")
	for i := 0; i < k; i++ {
		d.MustAddArc(a, b)
	}
	d.MustAddArc(b, a)
	return d
}
