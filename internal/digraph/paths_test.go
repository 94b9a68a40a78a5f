package digraph

import (
	"testing"
)

func TestPathBasics(t *testing.T) {
	p := Path{2, 0, 1}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if p.First() != 2 || p.Last() != 1 {
		t.Errorf("First/Last = %d/%d, want 2/1", p.First(), p.Last())
	}
	if !p.Contains(0) || p.Contains(5) {
		t.Error("Contains misreported membership")
	}
	if (Path{}).Len() != 0 || (Path{3}).Len() != 0 {
		t.Error("degenerate paths have length 0")
	}
}

// TestPathString pins the rendering ledger notes embed: vertex indexes
// joined by '>', exactly what fmt's %d per vertex produced.
func TestPathString(t *testing.T) {
	for _, tt := range []struct {
		p    Path
		want string
	}{
		{Path{}, ""},
		{Path{3}, "3"},
		{Path{2, 0, 1}, "2>0>1"},
		{Path{10, 123456, 7, 0, 99, 12, 11, 13, 14, 15, 16, 17}, "10>123456>7>0>99>12>11>13>14>15>16>17"},
	} {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", []Vertex(tt.p), got, tt.want)
		}
	}
}

func TestPathPrepend(t *testing.T) {
	p := Path{1, 2}
	q := p.Prepend(0)
	if q.String() != "0>1>2" {
		t.Errorf("Prepend = %v, want 0>1>2", q)
	}
	if p.String() != "1>2" {
		t.Errorf("Prepend mutated receiver: %v", p)
	}
	// The returned path must not share backing storage in a way that lets
	// later appends corrupt the original.
	q2 := q.Prepend(3)
	if q.String() != "0>1>2" || q2.String() != "3>0>1>2" {
		t.Errorf("chained Prepend corrupted paths: %v, %v", q, q2)
	}
}

func TestPathClone(t *testing.T) {
	p := Path{0, 1}
	c := p.Clone()
	c[0] = 9
	if p[0] == 9 {
		t.Error("Clone shares storage")
	}
}

func TestIsPath(t *testing.T) {
	d := cycle3() // A->B->C->A
	tests := []struct {
		name string
		p    Path
		want bool
	}{
		{name: "single vertex", p: Path{0}, want: true},
		{name: "one arc", p: Path{0, 1}, want: true},
		{name: "two arcs", p: Path{0, 1, 2}, want: true},
		{name: "wraps full cycle", p: Path{0, 1, 2, 0}, want: false}, // repeats vertex
		{name: "no such arc", p: Path{0, 2}, want: false},
		{name: "empty", p: Path{}, want: false},
		{name: "out of range", p: Path{0, 7}, want: false},
		{name: "repeat vertex", p: Path{0, 1, 0}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := d.IsPath(tt.p); got != tt.want {
				t.Errorf("IsPath(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestIsPathUsesParallelArcs(t *testing.T) {
	d := New()
	a := d.AddVertex("A")
	b := d.AddVertex("B")
	d.MustAddArc(a, b)
	d.MustAddArc(a, b)
	if !d.IsPath(Path{a, b}) {
		t.Error("path across parallel arcs should be valid")
	}
}

func TestAllSimplePaths(t *testing.T) {
	// Complete digraph on 3 vertexes (the Figure 7 two-leader digraph).
	d := FromArcs(3,
		[2]int{0, 1}, [2]int{1, 0},
		[2]int{1, 2}, [2]int{2, 1},
		[2]int{0, 2}, [2]int{2, 0},
	)
	paths := d.AllSimplePaths(0, 2, 0)
	// 0>2 and 0>1>2.
	if len(paths) != 2 {
		t.Fatalf("paths 0->2 = %v, want 2", paths)
	}
	if paths[0].String() != "0>1>2" || paths[1].String() != "0>2" {
		t.Errorf("deterministic order violated: %v", paths)
	}

	self := d.AllSimplePaths(1, 1, 0)
	if len(self) != 1 || self[0].Len() != 0 {
		t.Errorf("self paths = %v, want the single degenerate path", self)
	}
}

func TestAllSimplePathsLimit(t *testing.T) {
	d := FromArcs(3,
		[2]int{0, 1}, [2]int{1, 0},
		[2]int{1, 2}, [2]int{2, 1},
		[2]int{0, 2}, [2]int{2, 0},
	)
	paths := d.AllSimplePaths(0, 2, 1)
	if len(paths) != 1 {
		t.Errorf("limit=1 returned %d paths", len(paths))
	}
}

func TestAllSimplePathsUnreachable(t *testing.T) {
	d := FromArcs(3, [2]int{0, 1})
	if paths := d.AllSimplePaths(1, 0, 0); len(paths) != 0 {
		t.Errorf("paths 1->0 = %v, want none", paths)
	}
	if paths := d.AllSimplePaths(0, 2, 0); len(paths) != 0 {
		t.Errorf("paths 0->2 = %v, want none", paths)
	}
}

func TestAllSimplePathsAreValid(t *testing.T) {
	d := FromArcs(5,
		[2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4},
		[2]int{0, 2}, [2]int{1, 3}, [2]int{2, 4}, [2]int{4, 0},
	)
	for _, p := range d.AllSimplePaths(0, 4, 0) {
		if !d.IsPath(p) {
			t.Errorf("returned invalid path %v", p)
		}
		if p.First() != 0 || p.Last() != 4 {
			t.Errorf("path %v has wrong endpoints", p)
		}
	}
}
