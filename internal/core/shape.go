package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Shape is the part of a swap plan that is a function of the labelled
// digraph alone — of the pair (D, L) in the paper's terms: the topology
// with its adjacency lists, whether it may be cleared at all (strongly
// connected, Theorem 3.5; leaders a feedback vertex set, Theorem 4.12),
// the leaders and the protocol they select, the diameter bound, and the
// longest-path ladder every timelock is a multiple of. Parties, assets,
// secrets, the tag, Start and Δ are the binding; NewSetup lays a binding
// over a shape. A Shape is immutable once compiled, so every swap of the
// same shape — and every goroutine reading their specs — shares one.
type Shape struct {
	d       *digraph.Digraph
	in, out [][]int // arc IDs entering / leaving each vertex, ascending

	connected  bool
	leaders    []digraph.Vertex // sorted
	leadersFVS bool

	diam      int // diam(D), or the n-1 bound when not exact
	diamExact bool
	diamBound int

	// steps[arc*len(leaders)+i] is lock i's deadline on the arc, in Δ after
	// Start: diamBound plus the longest simple path from the arc's tail to
	// leader i. maxStep is the largest.
	steps   []int
	maxStep int
	// deadlines counts, over all arcs, the distinct steps of each arc: the
	// refund alarms a hashkey run arms.
	deadlines int
	// shortKeys records that every vertex is a leader or has an arc to
	// each leader, so every hashkey a conforming party presents has at
	// most two links, and fits a record of a swap's htlc.Unlocks.
	shortKeys bool
}

// compileShape derives d's shape. leaders nil picks a minimum feedback
// vertex set; diamBound 0 computes the bound from d. Malformed leaders are
// reported; whether the shape may be cleared is recorded, not enforced —
// the impossibility experiments run shapes the paper proves cannot work.
func compileShape(d *digraph.Digraph, leaders []digraph.Vertex, diamBound int) (*Shape, error) {
	n := d.NumVertices()
	if n < 2 || d.NumArcs() < 1 {
		return nil, fmt.Errorf("%w: need at least 2 vertexes and 1 arc", ErrSpecShape)
	}
	if leaders == nil {
		leaders, _ = d.MinFVS()
		if len(leaders) == 0 {
			// Acyclic graphs fail validation later anyway (not strongly
			// connected), but keep the shape sane for unsafe runs.
			leaders = []digraph.Vertex{0}
		}
	} else {
		leaders = slices.Clone(leaders)
	}
	if len(leaders) == 0 {
		return nil, fmt.Errorf("%w: no leaders", ErrSpecShape)
	}
	slices.Sort(leaders)
	for i, l := range leaders {
		if int(l) < 0 || int(l) >= n {
			return nil, fmt.Errorf("%w: leader %d out of range", ErrSpecShape, l)
		}
		if i > 0 && leaders[i-1] == l {
			return nil, fmt.Errorf("%w: duplicate leader %d", ErrSpecShape, l)
		}
	}
	s := &Shape{
		d:          d,
		in:         make([][]int, n),
		out:        make([][]int, n),
		connected:  d.StronglyConnected(),
		leaders:    leaders,
		leadersFVS: d.IsFeedbackVertexSet(leaders),
		diamBound:  diamBound,
	}
	for v := range s.in {
		s.in[v], s.out[v] = d.In(digraph.Vertex(v)), d.Out(digraph.Vertex(v))
	}
	s.diam, s.diamExact = d.Diameter()
	if s.diamBound == 0 {
		s.diamBound = s.diam
	}

	// pathTo[v*nl+i] is the longest simple path from v to leader i, clamped
	// to the diameter bound (and set to it when inexact or unreachable — a
	// safe over-approximation). With a single leader whose removal leaves D
	// acyclic the values are exact at any size, which the staircase of
	// classic HTLCs depends on: a flat over-approximation is safe for
	// hashkeys but is the uniform-timeout mistake for bare secrets.
	nl := len(leaders)
	pathTo := make([]int, n*nl)
	var toLeader []int
	if nl == 1 {
		toLeader, _ = d.LongestPathsToSink(leaders[0])
	}
	s.shortKeys = true
	for v := 0; v < n; v++ {
		var from []int
		if toLeader == nil {
			from, _ = d.LongestPathsFrom(digraph.Vertex(v))
		}
		for i, l := range leaders {
			s.shortKeys = s.shortKeys && (l == digraph.Vertex(v) || d.HasArcBetween(digraph.Vertex(v), l))
			p := 0
			if toLeader != nil {
				p = toLeader[v]
			} else {
				p = from[l]
			}
			if p < 0 || p > s.diamBound {
				p = s.diamBound
			}
			pathTo[v*nl+i] = p
		}
	}
	s.steps = make([]int, d.NumArcs()*nl)
	for id := 0; id < d.NumArcs(); id++ {
		row := s.steps[id*nl : (id+1)*nl]
		tail := int(d.Arc(id).Tail)
		for i := range row {
			row[i] = s.diamBound + pathTo[tail*nl+i]
			s.maxStep = max(s.maxStep, row[i])
		}
		for i, step := range row {
			if !slices.Contains(row[:i], step) {
				s.deadlines++
			}
		}
	}
	return s, nil
}

// kind is the protocol a KindByLeaders request resolves to on this shape.
func (s *Shape) kind() Kind {
	if len(s.leaders) == 1 {
		return KindSingleLeader
	}
	return KindGeneral
}

// checkDiamBound is the diameter half of validation for an explicit bound.
func (s *Shape) checkDiamBound(bound int) error {
	if bound < s.diam || (!s.diamExact && bound < s.d.NumVertices()-1) {
		return fmt.Errorf("%w: diameter bound %d below diameter %d", ErrSpecShape, bound, s.diam)
	}
	return nil
}

// clearable reports the shape's standing under the protocol's game-
// theoretic preconditions.
func (s *Shape) clearable() error {
	if !s.connected {
		return ErrNotStronglyConnected
	}
	if !s.leadersFVS {
		return ErrLeadersNotFVS
	}
	return nil
}

// maxCachedShapes bounds a ShapeCache. A clearing service sees a handful
// of shapes (rings of a few sizes, the odd clique); the bound only keeps a
// stream of one-off random digraphs from growing the cache without limit.
const maxCachedShapes = 256

// ShapeCache keeps compiled shapes by labelled digraph — vertex count plus
// arc list, exactly as Clear numbers them from sorted party IDs — so a
// clearing service that clears the same ring three thousand times derives
// its leaders, diameter and timelock ladder once. Two swaps whose parties
// differ but whose arcs agree vertex for vertex share an entry; any
// difference in the arc list (order included: arc IDs are positions) is a
// different entry. A full cache is emptied and refills: a hit and a fresh
// compile give the same Setup, so eviction can cost time but never change
// an outcome. Safe for concurrent use; the zero value is ready.
type ShapeCache struct {
	mu     sync.Mutex
	shapes map[string]*Shape
	key    []byte
}

// appendShapeKey appends the cache key of the digraph with n vertexes and
// the given arcs: digraph.Encode's bytes (varint counts, then varint
// head/tail pairs in arc order), which decode back to exactly this list —
// distinct lists never share a key.
func appendShapeKey(buf []byte, n int, arcs []digraph.Arc) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(arcs)))
	for _, a := range arcs {
		buf = binary.AppendUvarint(buf, uint64(a.Head))
		buf = binary.AppendUvarint(buf, uint64(a.Tail))
	}
	return buf
}

// shape returns the compiled shape of the digraph with n vertexes and the
// given arcs, compiling it (minimum-FVS leaders, computed diameter bound,
// default vertex names) on first sight.
func (c *ShapeCache) shape(n int, arcs []digraph.Arc) (*Shape, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.key = appendShapeKey(c.key[:0], n, arcs)
	if s, ok := c.shapes[string(c.key)]; ok {
		return s, nil
	}
	d, err := digraph.Build(make([]string, n), arcs)
	if err != nil {
		return nil, fmt.Errorf("core: clearing: %w", err)
	}
	s, err := compileShape(d, nil, 0)
	if err != nil {
		return nil, err
	}
	if c.shapes == nil || len(c.shapes) >= maxCachedShapes {
		c.shapes = make(map[string]*Shape)
	}
	c.shapes[string(c.key)] = s
	return s, nil
}
