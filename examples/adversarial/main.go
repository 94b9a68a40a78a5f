// Adversarial scenarios: every attack the paper discusses, run against
// conforming parties. The protocol's guarantee (Theorem 4.9) is that no
// conforming party ever ends Underwater — deviators may hurt themselves.
package main

import (
	"fmt"
	"log"
	"math/rand"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

type scenario struct {
	name   string
	kind   atomicswap.Kind
	attack func(*atomicswap.Setup, *atomicswap.Runner)
	moral  string
}

func main() {
	scenarios := []scenario{
		{
			name: "Bob crashes before the swap starts",
			attack: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				r.SetBehavior(1, atomicswap.HaltAt(atomicswap.NewConforming(), 0))
			},
			moral: "nothing deploys past Bob; every escrow refunds; all NoDeal",
		},
		{
			name: "Carol crashes mid Phase Two",
			attack: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				r.SetBehavior(2, atomicswap.HaltAt(atomicswap.NewConforming(), 125))
			},
			moral: "Alice already holds Carol's unlock: Carol alone ends Underwater",
		},
		{
			name: "the leader never reveals (griefing DoS)",
			attack: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				idx, _ := s.Spec.LeaderIndex(0)
				r.SetBehavior(0, atomicswap.SilentLeader(idx))
			},
			moral: "assets locked only until the timelocks: bounded griefing, all NoDeal",
		},
		{
			name: "Carol unlocks everything at the last valid tick",
			attack: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				r.SetBehavior(2, atomicswap.LastMomentUnlocker())
			},
			moral: "path-dependent deadlines absorb the delay: still all Deal",
		},
		{
			name: "uniform timeouts + last-moment reveal (the broken baseline)",
			kind: atomicswap.KindUniformTimeout,
			attack: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				r.SetBehavior(2, atomicswap.LastMomentRedeemer())
			},
			moral: "with equal timeouts Bob is stranded Underwater — the Section 1 trap",
		},
		{
			name: "staircase timeouts + the same attack",
			kind: atomicswap.KindSingleLeader,
			attack: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				r.SetBehavior(2, atomicswap.LastMomentRedeemer())
			},
			moral: "each arc outlives its successor by Δ: Bob escapes, all Deal",
		},
	}
	for i, sc := range scenarios {
		if err := runScenario(i, sc); err != nil {
			log.Fatal(err)
		}
	}
}

func runScenario(i int, sc scenario) error {
	kind := sc.kind
	if kind == 0 {
		kind = atomicswap.KindGeneral
	}
	setup, err := atomicswap.NewSetup(atomicswap.ThreeWay(), atomicswap.Config{
		Kind:  kind,
		Delta: 10,
		Start: 100,
		Rand:  rand.New(rand.NewSource(int64(100 + i))),
	})
	if err != nil {
		return err
	}
	r := atomicswap.NewRunner(setup)
	sc.attack(setup, r)
	res, err := r.Run()
	if err != nil {
		return err
	}
	fmt.Printf("── %s\n", sc.name)
	for _, v := range setup.Spec.D.Vertices() {
		marker := " "
		if res.Report.Of(v) == atomicswap.Underwater {
			marker = "!"
		}
		fmt.Printf("   %s %-6s %v\n", marker, setup.Spec.PartyOf(v), res.Report.Of(v))
	}
	safe := true
	for _, v := range res.Conforming {
		if res.Report.Of(v) == atomicswap.Underwater {
			safe = false
		}
	}
	fmt.Printf("   conforming parties safe: %v — %s\n\n", safe, sc.moral)
	return nil
}
