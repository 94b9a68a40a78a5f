package atomicswap_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	atomicswap "github.com/go-atomicswap/atomicswap"
	"github.com/go-atomicswap/atomicswap/internal/adversary"
)

var updateReferenceGolden = flag.Bool("update-reference-golden", false,
	"rewrite testdata/runner_reference.golden from this build's runs")

// referenceShape is one digraph of the reference grid. htlc marks the
// shapes whose feedback vertex set is one vertex, which also run the
// single-leader protocol.
type referenceShape struct {
	name string
	d    func() *atomicswap.Digraph
	htlc bool
}

var referenceShapes = []referenceShape{
	{"threeway", atomicswap.ThreeWay, true},
	{"triangle2", atomicswap.TwoLeaderTriangle, false},
	{"cycle5", func() *atomicswap.Digraph { return atomicswap.Cycle(5) }, true},
	{"bidir4", func() *atomicswap.Digraph { return atomicswap.BidirCycle(4) }, false},
	{"clique4", func() *atomicswap.Digraph { return atomicswap.Clique(4) }, false},
	{"flower3x3", func() *atomicswap.Digraph { return atomicswap.Flower(3, 3) }, true},
	{"random6", func() *atomicswap.Digraph { return atomicswap.RandomStronglyConnected(6, 0.3, 7) }, false},
	{"multiarc3", func() *atomicswap.Digraph { return atomicswap.MultiArcPair(3) }, true},
}

// referenceDeviations are the grid's behaviours: conforming, then the nine
// named deviations. leader says whom the deviation is handed to: the first
// leader, or the vertex after it. A strategy built on the other protocol's
// conforming base (the last-moment pair) degenerates into
// abandon-at-first-contract there; that is a run like any other.
var referenceDeviations = []struct {
	name   string
	leader bool
	b      func(spec *atomicswap.Spec) atomicswap.Behavior
}{
	{"conforming", false, nil},
	{"silent", true, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.SilentLeader(0) }},
	{"noclaim", false, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.NoClaim() }},
	{"lastredeem", false, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.LastMomentRedeemer() }},
	{"lastunlock", false, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.LastMomentUnlocker() }},
	{"premature", true, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.PrematureRevealer() }},
	{"eager", false, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.EagerPublisher() }},
	{"corrupt", true, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.CorruptPublisher() }},
	{"halt", false, func(spec *atomicswap.Spec) atomicswap.Behavior {
		return adversary.HaltAt(atomicswap.ConformingFor(spec), spec.Start.Add(2*spec.Delta))
	}},
	{"withhold", false, func(*atomicswap.Spec) atomicswap.Behavior { return adversary.WithholdPublications() }},
}

// referenceRun executes one grid cell and renders everything the golden
// pins about it: the trace (Detail blanked), which arcs triggered, every
// party's outcome class, the call counters, the two phase-end ticks and the
// bytes stored.
func referenceRun(t *testing.T, name string, d *atomicswap.Digraph, kind atomicswap.Kind, broadcast bool, dev int) string {
	t.Helper()
	setup, err := atomicswap.NewSetup(d, atomicswap.Config{
		Kind: kind, Broadcast: broadcast, Delta: 10, Start: 100,
		Rand: rand.New(rand.NewSource(21)),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	spec := setup.Spec
	r := atomicswap.NewRunner(setup)
	if rd := referenceDeviations[dev]; rd.b != nil {
		v := spec.Leaders[0]
		if !rd.leader {
			v = atomicswap.Vertex((int(v) + 1) % d.NumVertices())
		}
		r.SetBehavior(v, rd.b(spec))
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	arcs := make([]int, 0, len(res.Triggered))
	for id := range res.Triggered {
		arcs = append(arcs, id)
	}
	sort.Ints(arcs)
	b.WriteString("triggered:")
	for _, id := range arcs {
		fmt.Fprintf(&b, " %d=%t", id, res.Triggered[id])
	}
	b.WriteString("\noutcomes:")
	for _, v := range d.Vertices() {
		fmt.Fprintf(&b, " %s=%v", spec.PartyOf(v), res.Report.Of(v))
	}
	fmt.Fprintf(&b, "\nconforming: %v\n", res.Conforming)
	fmt.Fprintf(&b, "counters: %s\n", res.Counters.String())
	fmt.Fprintf(&b, "timing: deploy=%d done=%d\n", res.Timing.DeployDone, res.Timing.AllDone)
	fmt.Fprintf(&b, "storage: %d\n", res.StorageBytes)
	for _, ev := range res.Log.Events() {
		ev.Detail = ""
		fmt.Fprintf(&b, "  %s\n", ev)
	}
	return b.String()
}

// TestRunnerReferenceGolden pins what the reference Runner does over a grid
// of shapes × protocol × broadcast × behaviour against
// testdata/runner_reference.golden, which was written while the Runner was
// still its own runtime in core, on the commit before it became a façade
// over conc. Whatever executes a Runner must reproduce every cell.
func TestRunnerReferenceGolden(t *testing.T) {
	type cell struct {
		name      string
		shape     referenceShape
		kind      atomicswap.Kind
		broadcast bool
		dev       int
	}
	var cells []cell
	for _, sh := range referenceShapes {
		kinds := []atomicswap.Kind{atomicswap.KindGeneral}
		if sh.htlc {
			kinds = append(kinds, atomicswap.KindSingleLeader)
		}
		for _, kind := range kinds {
			for _, broadcast := range []bool{false, true} {
				for dev, rd := range referenceDeviations {
					cells = append(cells, cell{
						name:  fmt.Sprintf("%s/%v/broadcast=%t/%s", sh.name, kind, broadcast, rd.name),
						shape: sh, kind: kind, broadcast: broadcast, dev: dev,
					})
				}
			}
		}
	}

	path := filepath.Join("testdata", "runner_reference.golden")
	if *updateReferenceGolden {
		var b strings.Builder
		for _, c := range cells {
			b.WriteString(referenceRun(t, c.name, c.shape.d(), c.kind, c.broadcast, c.dev))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, sec := range strings.Split(string(raw), "== ")[1:] {
		name, _, _ := strings.Cut(sec, "\n")
		want[name] = "== " + sec
	}
	if len(want) != len(cells) {
		t.Fatalf("golden holds %d cells, the grid has %d", len(want), len(cells))
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			got := referenceRun(t, c.name, c.shape.d(), c.kind, c.broadcast, c.dev)
			if got != want[c.name] {
				t.Errorf("run differs from the reference\n--- got\n%s--- want\n%s", got, want[c.name])
			}
		})
	}
}
