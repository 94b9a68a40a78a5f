// Package outcome classifies how a swap ended for each party or coalition,
// following the paper's Section 3 taxonomy (Figure 3): Underwater, NoDeal,
// Deal, Discount, and FreeRide, together with the partial preference order
// the protocol design assumes and the uniformity predicate of
// Definition 3.1.
package outcome

import (
	"fmt"
	"slices"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Class is a payoff class for a party or coalition.
type Class int

// Payoff classes from worst to best along the acceptability axis. The
// order of declaration is not the preference order — see Prefer.
const (
	// Underwater: at least one entering arc untriggered and at least one
	// leaving arc triggered — the party paid without being fully paid.
	// The only class unacceptable to conforming parties.
	Underwater Class = iota + 1
	// NoDeal: no incident arc triggered; the status quo.
	NoDeal
	// Deal: every incident arc triggered; the intended outcome.
	Deal
	// Discount: all entering arcs triggered, at least one leaving arc not —
	// the party got everything and paid less.
	Discount
	// FreeRide: at least one entering arc triggered, no leaving arc
	// triggered — the party acquired assets for free.
	FreeRide
)

var classNames = map[Class]string{
	Underwater: "Underwater",
	NoDeal:     "NoDeal",
	Deal:       "Deal",
	Discount:   "Discount",
	FreeRide:   "FreeRide",
}

// String returns the paper's class name.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Acceptable reports whether a conforming party can be left with this
// class after failures or adversarial behavior (everything but
// Underwater — Section 3).
func (c Class) Acceptable() bool { return c != Underwater }

// Classify determines the payoff class of the coalition given by members
// (a single vertex for an individual party) on digraph d, where
// triggered[id] reports whether the transfer on arc id happened (an arc
// past the slice's end did not). Arcs internal to the coalition are
// ignored, mirroring the paper's "replace v with C".
func Classify(d *digraph.Digraph, triggered []bool, members ...digraph.Vertex) Class {
	var (
		enteringTriggered, enteringUntriggered bool
		leavingTriggered, leavingUntriggered   bool
	)
	for id := range d.NumArcs() {
		a := d.Arc(id)
		headIn, tailIn := slices.Contains(members, a.Head), slices.Contains(members, a.Tail)
		fired := id < len(triggered) && triggered[id]
		switch {
		case headIn && tailIn: // internal to the coalition
			continue
		case tailIn: // enters the coalition
			if fired {
				enteringTriggered = true
			} else {
				enteringUntriggered = true
			}
		case headIn: // leaves the coalition
			if fired {
				leavingTriggered = true
			} else {
				leavingUntriggered = true
			}
		}
	}
	switch {
	case enteringUntriggered && leavingTriggered:
		return Underwater
	case !enteringTriggered && !leavingTriggered:
		return NoDeal
	case enteringTriggered && !leavingTriggered:
		return FreeRide
	case !enteringUntriggered && leavingUntriggered:
		return Discount
	default:
		return Deal
	}
}

// Prefer reports whether a party prefers class a to class b, per the
// partial order the protocol assumes (Section 3): Deal > NoDeal,
// Discount > Deal, FreeRide > NoDeal, every acceptable class > Underwater,
// plus transitive consequences (Discount > NoDeal). Classes like FreeRide
// vs Deal are incomparable: Prefer returns false both ways.
func Prefer(a, b Class) bool {
	if a == b {
		return false
	}
	if b == Underwater && a != Underwater {
		return true
	}
	better := map[Class]map[Class]bool{
		Deal:     {NoDeal: true},
		Discount: {Deal: true, NoDeal: true},
		FreeRide: {NoDeal: true},
	}
	return better[a][b]
}

// Report summarizes a finished run for every party: its class, indexed
// by vertex.
type Report []Class

// NewReport classifies every vertex of d individually.
func NewReport(d *digraph.Digraph, triggered []bool) Report {
	r := make(Report, d.NumVertices())
	r.Fill(d, triggered)
	return r
}

// Fill classifies every vertex of d into r, which holds one entry per
// vertex: NewReport over storage the caller already has.
func (r Report) Fill(d *digraph.Digraph, triggered []bool) {
	for v := range r {
		r[v] = Classify(d, triggered, digraph.Vertex(v))
	}
}

// Of returns the class of a vertex.
func (r Report) Of(v digraph.Vertex) Class { return r[v] }

// AllDeal reports whether every party finished with Deal — the
// all-conforming outcome required by Definition 3.1.
func (r Report) AllDeal() bool {
	for _, c := range r {
		if c != Deal {
			return false
		}
	}
	return true
}

// NoneUnderwater reports whether the vertexes in the given set all avoided
// Underwater — the uniformity condition for the conforming parties.
func (r Report) NoneUnderwater(conforming []digraph.Vertex) bool {
	for _, v := range conforming {
		if r[v] == Underwater {
			return false
		}
	}
	return true
}

// Histogram counts parties per class, for experiment tables.
func (r Report) Histogram() map[Class]int {
	h := make(map[Class]int)
	for _, c := range r {
		h[c]++
	}
	return h
}
