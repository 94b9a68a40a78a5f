package audit

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

func TestSettleCleanRun(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), nil)
	faults := Run(setup.Spec, res.Registry)
	s := Settle(setup.Spec, faults, 100)
	if len(s.Slashed) != 0 || s.Burned != 0 {
		t.Fatalf("clean run should slash no one: %+v", s)
	}
	for _, p := range setup.Spec.Parties {
		if s.Payout[p] != 100 {
			t.Errorf("%s payout = %d, want the bond back", p, s.Payout[p])
		}
	}
}

func TestSettleSlashesSilentLeader(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), func(st *core.Setup, r *conc.Runner) {
		idx, _ := st.Spec.LeaderIndex(0)
		r.SetBehavior(0, adversary.SilentLeader(idx))
	})
	faults := Run(setup.Spec, res.Registry)
	s := Settle(setup.Spec, faults, 100)
	if len(s.Slashed) != 1 || s.Slashed[0] != "Alice" {
		t.Fatalf("slashed = %v, want [Alice]", s.Slashed)
	}
	if s.Payout["Alice"] != 0 {
		t.Errorf("Alice payout = %d, want 0", s.Payout["Alice"])
	}
	// Her 100 splits evenly between Bob and Carol.
	if s.Payout["Bob"] != 150 || s.Payout["Carol"] != 150 {
		t.Errorf("payouts = %v, want 150 each for the victims", s.Payout)
	}
	if s.Burned != 0 {
		t.Errorf("burned = %d, want 0", s.Burned)
	}
}

func TestSettleIndivisibleRemainderBurns(t *testing.T) {
	setup, res := setupRun(t, graphgen.ThreeWay(), func(st *core.Setup, r *conc.Runner) {
		idx, _ := st.Spec.LeaderIndex(0)
		r.SetBehavior(0, adversary.SilentLeader(idx))
	})
	faults := Run(setup.Spec, res.Registry)
	s := Settle(setup.Spec, faults, 101) // 101 does not split between two
	if s.Payout["Bob"] != 101+50 || s.Payout["Carol"] != 101+50 {
		t.Errorf("payouts = %v", s.Payout)
	}
	if s.Burned != 1 {
		t.Errorf("burned = %d, want 1", s.Burned)
	}
}

func TestSettleConservesValue(t *testing.T) {
	// Total payouts + burned always equals total bonds posted.
	setup, res := setupRun(t, graphgen.ThreeWay(), func(st *core.Setup, r *conc.Runner) {
		r.SetBehavior(1, adversary.WithholdPublications())
	})
	faults := Run(setup.Spec, res.Registry)
	const bond = 97
	s := Settle(setup.Spec, faults, bond)
	total := s.Burned
	for _, p := range s.Payout {
		total += p
	}
	if want := uint64(bond * 3); total != want {
		t.Errorf("value not conserved: %d, want %d", total, want)
	}
}
