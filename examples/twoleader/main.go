// Two-leader digraph (Figures 6–8): the complete digraph on three parties
// needs two leaders (no single vertex breaks every cycle), so static
// timeouts cannot work and the general hashkey protocol takes over. This
// example enumerates every hashkey each arc can accept — reproducing
// Figure 7 — and then runs the swap, showing the concurrent contract
// propagation of Figure 8.
package main

import (
	"fmt"
	"log"
	"math/rand"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

func main() {
	d := atomicswap.TwoLeaderTriangle()
	setup, err := atomicswap.NewSetup(d, atomicswap.Config{
		Delta: 10,
		Start: 100,
		Rand:  rand.New(rand.NewSource(7)),
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := setup.Spec

	fmt.Printf("digraph: %s\n", d)
	fmt.Printf("minimum feedback vertex set needs %d leaders: %v (A and B generate secrets)\n\n",
		len(spec.Leaders), spec.Leaders)

	// Figure 7: the hashkeys each arc accepts — one per simple path from
	// the arc's counterparty to each leader, with path-length deadlines.
	fmt.Println("hashkey paths per arc (Figure 7); deadline = (diam + |p|)·Δ after start:")
	for _, arc := range d.Arcs() {
		fmt.Printf("  arc %s->%s:\n", d.Name(arc.Head), d.Name(arc.Tail))
		for i, leader := range spec.Leaders {
			for _, p := range d.AllSimplePaths(arc.Tail, leader, 0) {
				fmt.Printf("    s_%s via %v  (|p|=%d, dies at T+%dΔ)\n",
					d.Name(leader), names(d, p), p.Len(), spec.DiamBound+p.Len())
			}
			_ = i
		}
	}

	res, err := atomicswap.NewRunner(setup).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconcurrent propagation (Figure 8): both leaders deploy at once,")
	fmt.Println("C follows, secrets then flood back along the transpose:")
	fmt.Print(res.Log.Render())
	fmt.Printf("\nall Deal: %v\n", res.Report.AllDeal())
}

func names(d *atomicswap.Digraph, p atomicswap.Path) []string {
	out := make([]string, len(p))
	for i, v := range p {
		out[i] = d.Name(v)
	}
	return out
}
