// Fault attribution and bond slashing — the future work sketched in the
// paper's Section 5, implemented: "one could require parties to post
// bonds, and following a failed swap examine the blockchains to determine
// who was at fault (by failing to execute an enabled transition)".
//
// Three swaps run: a clean one, one where the leader goes silent, and one
// where a follower crashes mid-protocol. After each, an auditor with
// access only to public chain state names the culprit, and the bond pool
// is settled accordingly.
package main

import (
	"fmt"
	"log"
	"math/rand"

	atomicswap "github.com/go-atomicswap/atomicswap"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

const bond = 1_000 // each party's deposit

func main() {
	scenarios := []struct {
		name string
		rig  func(*atomicswap.Setup, *atomicswap.Runner)
	}{
		{
			name: "everyone conforms",
			rig:  func(*atomicswap.Setup, *atomicswap.Runner) {},
		},
		{
			name: "the leader never reveals (griefing)",
			rig: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				idx, _ := s.Spec.LeaderIndex(0)
				r.SetBehavior(0, atomicswap.SilentLeader(idx))
			},
		},
		{
			name: "Carol crashes mid Phase Two",
			rig: func(s *atomicswap.Setup, r *atomicswap.Runner) {
				r.SetBehavior(2, atomicswap.HaltAt(atomicswap.NewConforming(), vtime.Ticks(125)))
			},
		},
	}
	for i, sc := range scenarios {
		if err := runScenario(i, sc.name, sc.rig); err != nil {
			log.Fatal(err)
		}
	}
}

func runScenario(i int, name string, rig func(*atomicswap.Setup, *atomicswap.Runner)) error {
	setup, err := atomicswap.NewSetup(atomicswap.ThreeWay(), atomicswap.Config{
		Delta: 10, Start: 100, Rand: rand.New(rand.NewSource(int64(40 + i))),
	})
	if err != nil {
		return err
	}
	r := atomicswap.NewRunner(setup)
	rig(setup, r)
	res, err := r.Run()
	if err != nil {
		return err
	}
	fmt.Printf("── %s (all Deal: %v)\n", name, res.Report.AllDeal())

	faults := atomicswap.Audit(setup.Spec, res)
	if len(faults) == 0 {
		fmt.Println("   audit: clean — every enabled transition was executed")
	}
	for _, f := range faults {
		fmt.Printf("   audit: %s\n", f)
	}

	settlement := atomicswap.Settle(setup.Spec, faults, bond)
	for _, v := range setup.Spec.D.Vertices() {
		p := setup.Spec.PartyOf(v)
		payout := settlement.Payout[p]
		tag := ""
		switch {
		case payout == 0:
			tag = "  (slashed)"
		case payout > bond:
			tag = "  (compensated from the slashed pool)"
		}
		fmt.Printf("   bond %-6s posted %d, returned %d%s\n", p, bond, payout, tag)
	}
	fmt.Println()
	return nil
}
