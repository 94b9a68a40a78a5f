package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/audit"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

// E17FaultAttribution runs each named deviation and audits the ledgers:
// exactly the deviating party should be blamed, from public state only —
// the Section 5 bonds/fault-attribution extension, implemented.
func E17FaultAttribution() (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "Section 5 (future work, implemented): ledger-only fault attribution",
		Columns: []string{"scenario", "deviator", "faults found", "exactly the deviator blamed"},
	}
	type scenario struct {
		name     string
		deviator digraph.Vertex
		rig      func(*core.Setup, *conc.Runner)
	}
	scenarios := []scenario{
		{
			name:     "all conforming",
			deviator: -1,
			rig:      func(*core.Setup, *conc.Runner) {},
		},
		{
			name:     "silent leader",
			deviator: 0,
			rig: func(s *core.Setup, r *conc.Runner) {
				idx, _ := s.Spec.LeaderIndex(0)
				r.SetBehavior(0, adversary.SilentLeader(idx))
			},
		},
		{
			name:     "withheld publication",
			deviator: 1,
			rig: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(1, adversary.WithholdPublications())
			},
		},
		{
			name:     "crash during Phase Two",
			deviator: 2,
			rig: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(2, adversary.HaltAt(core.NewConforming(), 125))
			},
		},
		{
			name:     "corrupt contract",
			deviator: 0,
			rig: func(s *core.Setup, r *conc.Runner) {
				r.SetBehavior(0, adversary.CorruptPublisher())
			},
		},
	}
	for _, sc := range scenarios {
		setup, err := core.NewSetup(graphgen.ThreeWay(), core.Config{
			Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(30)),
		})
		if err != nil {
			return nil, err
		}
		r := conc.NewRunner(setup)
		sc.rig(setup, r)
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		faults := audit.Run(setup.Spec, res.Registry)
		var kinds []string
		exact := true
		for _, f := range faults {
			kinds = append(kinds, fmt.Sprintf("%s:%s", f.Party, f.Kind))
			if f.Vertex != sc.deviator {
				exact = false
			}
		}
		if sc.deviator == -1 {
			exact = len(faults) == 0
		} else if len(faults) == 0 {
			exact = false
		}
		deviatorName := "-"
		if sc.deviator >= 0 {
			deviatorName = string(setup.Spec.PartyOf(sc.deviator))
		}
		line := strings.Join(kinds, ", ")
		if line == "" {
			line = "none"
		}
		t.AddRow(sc.name, deviatorName, line, exact)
	}
	t.Notes = append(t.Notes,
		"the auditor reads only public state (plans, publication times, final contract state) — exactly what a bond-slashing contract could verify")
	return t, nil
}
