// Quickstart: the paper's motivating three-way swap (Figures 1 and 2).
// Alice trades alt-coins to Bob, Bob trades bitcoins to Carol, and Carol
// signs her Cadillac's title over to Alice — atomically, although no one
// trusts anyone.
package main

import (
	"fmt"
	"log"
	"math/rand"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

func main() {
	// The swap digraph: a 3-cycle. Alice is the natural single leader
	// (she alone breaks every cycle), chosen automatically.
	d := atomicswap.ThreeWay()

	setup, err := atomicswap.NewSetup(d, atomicswap.Config{
		Delta: 10,
		Start: 100,
		Rand:  rand.New(rand.NewSource(2018)), // deterministic demo
		Assets: []atomicswap.ArcAsset{
			{Chain: "altcoin", Asset: "alt-100", Amount: 100},
			{Chain: "bitcoin", Asset: "btc-1", Amount: 1},
			{Chain: "titles", Asset: "cadillac", Amount: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := setup.Spec
	fmt.Printf("swap: %s\n", spec.D)
	fmt.Printf("leader(s): %v   Δ=%d ticks   diam(D)=%d   everything settles by T+%dΔ\n\n",
		spec.Leaders, spec.Delta, spec.DiamBound, 2*spec.DiamBound)

	res, err := atomicswap.NewRunner(setup).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("event trace (publish+confirm ≤ Δ; deploys forward, secrets backward):")
	fmt.Print(res.Log.Render())

	fmt.Println("\noutcomes:")
	for _, v := range spec.D.Vertices() {
		fmt.Printf("  %-6s %v\n", spec.PartyOf(v), res.Report.Of(v))
	}
	fmt.Printf("\nall transfers happened atomically: %v\n", res.Report.AllDeal())
	fmt.Printf("on-chain storage: %d bytes across %d chains; %s\n",
		res.StorageBytes, spec.D.NumArcs(), res.Counters.String())
}
