package outcome

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

// trig builds a triggered set for the given arc IDs, indexed by arc ID.
func trig(ids ...int) []bool {
	var t []bool
	for _, id := range ids {
		if id >= len(t) {
			t = append(t, make([]bool, id+1-len(t))...)
		}
		t[id] = true
	}
	return t
}

func TestClassifySingleParty(t *testing.T) {
	// Three-cycle: arc 0 A->B, arc 1 B->C, arc 2 C->A.
	d := graphgen.ThreeWay()
	bob := digraph.Vertex(1) // entering: arc 0; leaving: arc 1
	tests := []struct {
		name      string
		triggered []bool
		want      Class
	}{
		{name: "all triggered is Deal", triggered: trig(0, 1, 2), want: Deal},
		{name: "nothing triggered is NoDeal", triggered: trig(), want: NoDeal},
		{name: "only entering is FreeRide", triggered: trig(0), want: FreeRide},
		{name: "only leaving is Underwater", triggered: trig(1), want: Underwater},
		{name: "unrelated arc only is NoDeal", triggered: trig(2), want: NoDeal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(d, tt.triggered, bob); got != tt.want {
				t.Errorf("Classify = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClassifyDiscount(t *testing.T) {
	// A party with two leaving arcs: entering all triggered, one leaving
	// not — Discount.
	d := digraph.New()
	a := d.AddVertex("A")
	b := d.AddVertex("B")
	c := d.AddVertex("C")
	arcBA := d.MustAddArc(b, a) // entering A
	arcAB := d.MustAddArc(a, b) // leaving A
	d.MustAddArc(a, c)          // leaving A, untriggered
	d.MustAddArc(c, b)
	if got := Classify(d, trig(arcBA, arcAB), a); got != Discount {
		t.Errorf("Classify = %v, want Discount", got)
	}
}

func TestClassifyCoalition(t *testing.T) {
	// Lemma 3.4 shape: X = {0,1,2} cycle, Y = {3,4,5} cycle, one arc X->Y.
	d := graphgen.NotStronglyConnected(3, 3)
	// X triggers its internal arcs (0,1,2) but not the X->Y arc (id 6).
	triggered := trig(0, 1, 2)
	// Coalition X: no entering arcs at all, leaving arc untriggered -> for
	// the coalition as a whole that is NoDeal...
	if got := Classify(d, triggered, 0, 1, 2); got != NoDeal {
		t.Errorf("coalition X = %v, want NoDeal", got)
	}
	// ...but the individual member with the Y-arc gets Discount: entering
	// triggered, one leaving arc untriggered. This is the deviation payoff
	// that breaks atomicity on non-strongly-connected digraphs.
	if got := Classify(d, triggered, 0); got != Discount {
		t.Errorf("vertex 0 = %v, want Discount", got)
	}
	// The other X members simply Deal among themselves.
	if got := Classify(d, triggered, 1); got != Deal {
		t.Errorf("vertex 1 = %v, want Deal", got)
	}
	// Y members see nothing: NoDeal.
	if got := Classify(d, triggered, 4); got != NoDeal {
		t.Errorf("vertex 4 = %v, want NoDeal", got)
	}
}

func TestClassifyCoalitionUnderwater(t *testing.T) {
	d := graphgen.ThreeWay()
	// Coalition {Alice, Bob}: entering arc is 2 (C->A), leaving arc is 1
	// (B->C). Leaving triggered, entering not: Underwater.
	if got := Classify(d, trig(1), 0, 1); got != Underwater {
		t.Errorf("coalition = %v, want Underwater", got)
	}
	// Internal arc 0 (A->B) is ignored entirely.
	if got := Classify(d, trig(0), 0, 1); got != NoDeal {
		t.Errorf("coalition with only internal arc = %v, want NoDeal", got)
	}
}

func TestAcceptable(t *testing.T) {
	for _, c := range []Class{NoDeal, Deal, Discount, FreeRide} {
		if !c.Acceptable() {
			t.Errorf("%v should be acceptable", c)
		}
	}
	if Underwater.Acceptable() {
		t.Error("Underwater must be unacceptable")
	}
}

func TestPrefer(t *testing.T) {
	tests := []struct {
		a, b Class
		want bool
	}{
		{Deal, NoDeal, true},
		{Discount, Deal, true},
		{Discount, NoDeal, true},
		{FreeRide, NoDeal, true},
		{Deal, Underwater, true},
		{NoDeal, Underwater, true},
		{FreeRide, Underwater, true},
		{Discount, Underwater, true},
		// Not preferred / incomparable pairs.
		{NoDeal, Deal, false},
		{Deal, Deal, false},
		{FreeRide, Deal, false},
		{Deal, FreeRide, false},
		{FreeRide, Discount, false},
		{Underwater, NoDeal, false},
	}
	for _, tt := range tests {
		if got := Prefer(tt.a, tt.b); got != tt.want {
			t.Errorf("Prefer(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Deal.String() != "Deal" || Underwater.String() != "Underwater" {
		t.Error("class names")
	}
	if Class(42).String() != "Class(42)" {
		t.Error("unknown class fallback")
	}
}

func TestReport(t *testing.T) {
	d := graphgen.ThreeWay()
	all := NewReport(d, trig(0, 1, 2))
	if !all.AllDeal() {
		t.Error("all triggered should be AllDeal")
	}
	if !all.NoneUnderwater(d.Vertices()) {
		t.Error("no one should be underwater")
	}
	if all.Of(0) != Deal {
		t.Errorf("Of(0) = %v, want Deal", all.Of(0))
	}

	partial := NewReport(d, trig(1)) // only B->C triggered
	if partial.AllDeal() {
		t.Error("partial run is not AllDeal")
	}
	// Bob paid (arc 1 triggered) without being paid (arc 0 not).
	if partial.Of(1) != Underwater {
		t.Errorf("Bob = %v, want Underwater", partial.Of(1))
	}
	if partial.NoneUnderwater([]digraph.Vertex{1}) {
		t.Error("Bob is underwater")
	}
	if partial.NoneUnderwater([]digraph.Vertex{0, 2}) != true {
		t.Error("Alice and Carol are not underwater")
	}
	h := partial.Histogram()
	if h[Underwater] != 1 || h[FreeRide] != 1 || h[NoDeal]+h[Deal]+h[Discount] != 1 {
		t.Errorf("histogram = %v", h)
	}
}
