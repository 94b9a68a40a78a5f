package audit

import (
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

func setupRun(t *testing.T, d *digraph.Digraph, rig func(*core.Setup, *conc.Runner)) (*core.Setup, *core.Result) {
	t.Helper()
	setup, err := core.NewSetup(d, core.Config{Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	r := conc.NewRunner(setup)
	if rig != nil {
		rig(setup, r)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return setup, res
}

func faultsOf(faults []Fault, v digraph.Vertex) []FaultKind {
	var kinds []FaultKind
	for _, f := range faults {
		if f.Vertex == v {
			kinds = append(kinds, f.Kind)
		}
	}
	return kinds
}

func TestCleanRunNoFaults(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), nil)
	if faults := Run(setup.Spec, res.Registry); len(faults) != 0 {
		t.Errorf("conforming run should audit clean, got %v", faults)
	}
}

func TestCleanTwoLeaderNoFaults(t *testing.T) {
	setup, res := setupRun(t, graphgen.TwoLeaderTriangle(), nil)
	if faults := Run(setup.Spec, res.Registry); len(faults) != 0 {
		t.Errorf("conforming run should audit clean, got %v", faults)
	}
}

func TestSilentLeaderBlamed(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), func(s *core.Setup, r *conc.Runner) {
		idx, _ := s.Spec.LeaderIndex(0)
		r.SetBehavior(0, adversary.SilentLeader(idx))
	})
	faults := Run(setup.Spec, res.Registry)
	kinds := faultsOf(faults, 0)
	if len(kinds) != 1 || kinds[0] != FaultSilentLeader {
		t.Errorf("Alice's faults = %v, want exactly [silent-leader]; all: %v", kinds, faults)
	}
	for v := digraph.Vertex(1); v < 3; v++ {
		if got := faultsOf(faults, v); len(got) != 0 {
			t.Errorf("innocent %d blamed: %v", v, got)
		}
	}
}

func TestWithholdingPublisherBlamed(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), func(s *core.Setup, r *conc.Runner) {
		// Bob (a follower whose entering arc gets covered) never
		// publishes his leaving contract.
		r.SetBehavior(1, adversary.WithholdPublications())
	})
	faults := Run(setup.Spec, res.Registry)
	kinds := faultsOf(faults, 1)
	if len(kinds) != 1 || kinds[0] != FaultMissingPublication {
		t.Errorf("Bob's faults = %v, want [missing-publication]; all: %v", kinds, faults)
	}
	if got := faultsOf(faults, 2); len(got) != 0 {
		// Carol never saw her entering arc covered: excused.
		t.Errorf("Carol blamed: %v", got)
	}
}

func TestCrashedRelayBlamed(t *testing.T) {
	// Carol crashes after Alice reveals: the ledgers show the secret on
	// Carol's leaving arc, a live waiting contract on her entering arc,
	// and no relay — exactly FaultUnrelayedSecret.
	setup, res := setupRun(t, graphgen.ThreeWay(), func(s *core.Setup, r *conc.Runner) {
		r.SetBehavior(2, adversary.HaltAt(core.NewConforming(), 125))
	})
	faults := Run(setup.Spec, res.Registry)
	kinds := faultsOf(faults, 2)
	if len(kinds) != 1 || kinds[0] != FaultUnrelayedSecret {
		t.Errorf("Carol's faults = %v, want [unrelayed-secret]; all: %v", kinds, faults)
	}
	if got := faultsOf(faults, 0); len(got) != 0 {
		t.Errorf("Alice blamed: %v", got)
	}
	if got := faultsOf(faults, 1); len(got) != 0 {
		t.Errorf("Bob blamed: %v", got)
	}
}

func TestCorruptPublisherBlamedVictimExcused(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), func(s *core.Setup, r *conc.Runner) {
		r.SetBehavior(0, adversary.CorruptPublisher())
	})
	faults := Run(setup.Spec, res.Registry)
	kinds := faultsOf(faults, 0)
	if len(kinds) == 0 || kinds[0] != FaultCorruptContract {
		t.Errorf("Alice's faults = %v, want corrupt-contract first; all: %v", kinds, faults)
	}
	// Bob abandoned without publishing — but his entering arc was never
	// CORRECTLY covered, so he is excused.
	if got := faultsOf(faults, 1); len(got) != 0 {
		t.Errorf("Bob blamed despite the corrupt entering contract: %v", got)
	}
}

func TestNoClaimNotAFault(t *testing.T) {
	// Claiming is self-interest, not an obligation the audit enforces.
	setup, res := setupRun(t, graphgen.ThreeWay(), func(s *core.Setup, r *conc.Runner) {
		r.SetBehavior(1, adversary.NoClaim())
	})
	if faults := Run(setup.Spec, res.Registry); len(faults) != 0 {
		t.Errorf("lazy claiming should not be a fault: %v", faults)
	}
}

func TestAuditSkipsHTLCVariants(t *testing.T) {
	setup, err := core.NewSetup(graphgen.ThreeWay(), core.Config{
		Kind: core.KindSingleLeader, Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conc.NewRunner(setup).Run()
	if err != nil {
		t.Fatal(err)
	}
	if faults := Run(setup.Spec, res.Registry); faults != nil {
		t.Errorf("HTLC variants are out of audit scope, got %v", faults)
	}
}

func TestFaultStrings(t *testing.T) {
	f := Fault{Party: "bob", Vertex: 1, Kind: FaultSilentLeader, Arc: -1, Detail: "d"}
	if f.String() == "" || FaultKind(99).String() != "fault(99)" {
		t.Error("fault rendering")
	}
	f2 := Fault{Party: "bob", Kind: FaultMissingPublication, Arc: 2, Detail: "d"}
	if f2.String() == "" {
		t.Error("arc fault rendering")
	}
}
