// Single-leader swaps (Section 4.6, Figure 6 left): when one vertex
// breaks every cycle, hashkeys and signatures are unnecessary — classic
// HTLCs on a timeout staircase suffice: an arc stays redeemable through
// (diam + D(v, leader))·Δ, the single-leader row of the hashkey ladder.
// This example runs a "flower" of three barter cycles sharing one broker.
package main

import (
	"fmt"
	"log"
	"math/rand"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

func main() {
	// Three petal cycles of two traders each, all passing through the
	// broker L: a classic over-the-counter desk clearing three rings at
	// once.
	d := atomicswap.Flower(3, 2)
	center, _ := d.VertexByName("L")

	setup, err := atomicswap.NewSetup(d, atomicswap.Config{
		Kind:    atomicswap.KindSingleLeader,
		Leaders: []atomicswap.Vertex{center},
		Delta:   10,
		Start:   100,
		Rand:    rand.New(rand.NewSource(31)),
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := setup.Spec

	fmt.Printf("digraph: %s\n", d)
	fmt.Printf("single leader %q is a feedback vertex set — no signatures needed\n\n", d.Name(center))

	fmt.Println("timeout staircase (each arc outlives its successor by ≥ Δ):")
	for _, arc := range d.Arcs() {
		// The HTLC's timeout is exclusive: the last tick a redeem lands.
		last := spec.HTLCTimeout(arc.ID) - 1
		fmt.Printf("  %-10s redeemable through T+%dΔ\n",
			fmt.Sprintf("%s->%s", d.Name(arc.Head), d.Name(arc.Tail)),
			(last-spec.Start)/atomicswap.Ticks(spec.Delta))
	}

	res, err := atomicswap.NewRunner(setup).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntrace:")
	fmt.Print(res.Log.Render())
	fmt.Printf("\nall Deal: %v (no unlock events — plain secrets, no hashkeys)\n", res.Report.AllDeal())
}
