package outcome

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

// TestClassificationIgnoresInternalArcs: a coalition's class must not
// change when the triggered status of its internal arcs flips.
func TestClassificationIgnoresInternalArcs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := graphgen.RandomStronglyConnected(3+rng.Intn(6), 0.35, seed)
		// Random coalition of 1..n-1 vertexes.
		n := d.NumVertices()
		var members []digraph.Vertex
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				members = append(members, digraph.Vertex(v))
			}
		}
		if len(members) == 0 {
			members = []digraph.Vertex{0}
		}
		if len(members) == n {
			members = members[1:]
		}
		inC := make(map[digraph.Vertex]bool)
		for _, v := range members {
			inC[v] = true
		}
		// Random trigger set.
		base := make([]bool, d.NumArcs())
		flipped := make([]bool, d.NumArcs())
		for _, a := range d.Arcs() {
			trig := rng.Intn(2) == 0
			base[a.ID] = trig
			if inC[a.Head] && inC[a.Tail] {
				flipped[a.ID] = !trig // internal: flip
			} else {
				flipped[a.ID] = trig
			}
		}
		return Classify(d, base, members...) == Classify(d, flipped, members...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEveryTriggerSetClassifies: Classify is total — every subset of
// triggered arcs maps each vertex to exactly one of the five classes.
func TestEveryTriggerSetClassifies(t *testing.T) {
	d := graphgen.ThreeWay()
	for mask := 0; mask < 8; mask++ {
		triggered := make([]bool, 3)
		for id := 0; id < 3; id++ {
			triggered[id] = mask&(1<<id) != 0
		}
		for _, v := range d.Vertices() {
			c := Classify(d, triggered, v)
			switch c {
			case Underwater, NoDeal, Deal, Discount, FreeRide:
			default:
				t.Fatalf("mask %d vertex %d: invalid class %v", mask, v, c)
			}
		}
	}
}

// TestExactlyOneUnacceptableClass pins Figure 3's acceptability frontier.
func TestExactlyOneUnacceptableClass(t *testing.T) {
	unacceptable := 0
	for _, c := range []Class{Underwater, NoDeal, Deal, Discount, FreeRide} {
		if !c.Acceptable() {
			unacceptable++
		}
	}
	if unacceptable != 1 {
		t.Errorf("unacceptable classes = %d, want exactly Underwater", unacceptable)
	}
}

// TestPreferIsStrictPartialOrder: irreflexive, asymmetric, transitive
// over all 25 pairs.
func TestPreferIsStrictPartialOrder(t *testing.T) {
	classes := []Class{Underwater, NoDeal, Deal, Discount, FreeRide}
	for _, a := range classes {
		if Prefer(a, a) {
			t.Errorf("Prefer(%v, %v) must be false (irreflexive)", a, a)
		}
		for _, b := range classes {
			if Prefer(a, b) && Prefer(b, a) {
				t.Errorf("Prefer not asymmetric on (%v, %v)", a, b)
			}
			for _, c := range classes {
				if Prefer(a, b) && Prefer(b, c) && !Prefer(a, c) {
					t.Errorf("Prefer not transitive: %v > %v > %v", a, b, c)
				}
			}
		}
	}
}
