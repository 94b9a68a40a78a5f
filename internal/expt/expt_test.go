package expt

import (
	"os"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %s under experiment %s", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			out := tbl.Render()
			if !strings.Contains(out, tbl.Title) {
				t.Errorf("%s render missing title", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s row width %d != %d columns", e.ID, len(row), len(tbl.Columns))
				}
			}
		})
	}
}

// TestTablesGolden pins every experiment table, byte for byte, to the
// `go run ./cmd/swapbench` output kept in testdata/tables.golden: the
// tables are a pure function of conc.Runner's event order, so any
// reordering in the runtime or the scheduler underneath it shows up here.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range All() {
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got.WriteString(tbl.Render())
		got.WriteByte('\n')
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("tables diverge from testdata/tables.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tables diverge from testdata/tables.golden: %d lines, want %d", len(gl), len(wl))
	}
}

func TestE2AllWithinBound(t *testing.T) {
	tbl, err := E2CompletionTime()
	if err != nil {
		t.Fatal(err)
	}
	within := len(tbl.Columns) - 1
	for _, row := range tbl.Rows {
		if row[within] != "true" {
			t.Errorf("family %s exceeded the 2·diam·Δ bound", row[0])
		}
	}
}

func TestE5AllScenariosSafe(t *testing.T) {
	tbl, err := E5AdversarialMatrix()
	if err != nil {
		t.Fatal(err)
	}
	safeCol := len(tbl.Columns) - 1
	for _, row := range tbl.Rows {
		if row[safeCol] != "true" {
			t.Errorf("scenario %q left a conforming party Underwater", row[0])
		}
	}
}

func TestE11BaselinesFailProtocolsHold(t *testing.T) {
	tbl, err := E11TimeoutAttacks()
	if err != nil {
		t.Fatal(err)
	}
	atomicCol := len(tbl.Columns) - 1
	want := map[int]string{0: "false", 1: "true", 2: "true", 3: "false"}
	for i, row := range tbl.Rows {
		if row[atomicCol] != want[i] {
			t.Errorf("row %d (%s): atomic = %s, want %s", i, row[0], row[atomicCol], want[i])
		}
	}
}

func TestE9MatchesFigure7(t *testing.T) {
	// The two-leader triangle has, per arc, one hashkey per simple path
	// from the counterparty to each leader. Each vertex has paths
	// {itself-as-leader: 1 or 2} summing to 20 hashkeys over 6 arcs —
	// exactly Figure 7's listing.
	tbl, err := E9Figure7Hashkeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 20 {
		t.Errorf("hashkey rows = %d, want 20", len(tbl.Rows))
	}
	// Degenerate leader paths (|p| = 0) appear once per entering arc of
	// each leader: two arcs enter A and two enter B — four in total.
	degenerate := 0
	for _, row := range tbl.Rows {
		if row[3] == "0" {
			degenerate++
		}
	}
	if degenerate != 4 {
		t.Errorf("degenerate paths = %d, want 4", degenerate)
	}
}

func TestE15BroadcastIsConstant(t *testing.T) {
	tbl, err := E15BroadcastShortCircuit()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[3] != "1Δ" {
			t.Errorf("%s: broadcast phase-2 span = %s, want 1Δ", row[0], row[3])
		}
	}
}

func TestE17ExactBlame(t *testing.T) {
	tbl, err := E17FaultAttribution()
	if err != nil {
		t.Fatal(err)
	}
	last := len(tbl.Columns) - 1
	for _, row := range tbl.Rows {
		if row[last] != "true" {
			t.Errorf("scenario %q: audit did not blame exactly the deviator", row[0])
		}
	}
}

func TestTableAddRowFormatting(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	tbl.AddRow(1, true)
	if tbl.Rows[0][0] != "1" || tbl.Rows[0][1] != "true" {
		t.Errorf("AddRow formatting: %v", tbl.Rows[0])
	}
}
