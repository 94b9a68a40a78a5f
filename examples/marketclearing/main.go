// Market clearing (Section 4.2): five parties submit barter offers to an
// untrusted clearing service, which assembles the swap digraph, picks the
// leaders, and publishes the plan. Each party independently verifies the
// plan against its own offer before the atomic swap runs.
package main

import (
	"fmt"
	"log"
	"math/rand"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

func main() {
	// A barter ring: collectibles moving between five traders, one of
	// whom (nina) gives two assets away.
	offers := []atomicswap.Offer{
		{Party: "maya", Give: []atomicswap.ProposedTransfer{
			{To: "nina", Chain: "cardchain", Asset: "rookie-card", Amount: 1},
		}},
		{Party: "nina", Give: []atomicswap.ProposedTransfer{
			{To: "omar", Chain: "coinchain", Asset: "gold-coin", Amount: 1},
			{To: "maya", Chain: "stampchain", Asset: "blue-stamp", Amount: 1},
		}},
		{Party: "omar", Give: []atomicswap.ProposedTransfer{
			{To: "pia", Chain: "bookchain", Asset: "first-edition", Amount: 1},
		}},
		{Party: "pia", Give: []atomicswap.ProposedTransfer{
			{To: "quinn", Chain: "vinylchain", Asset: "test-pressing", Amount: 1},
		}},
		{Party: "quinn", Give: []atomicswap.ProposedTransfer{
			{To: "nina", Chain: "mapchain", Asset: "sea-chart", Amount: 1},
		}},
	}

	setup, err := atomicswap.Clear(offers, atomicswap.Config{
		Rand: rand.New(rand.NewSource(55)),
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := setup.Spec
	fmt.Printf("cleared digraph: %s\n", spec.D)
	fmt.Printf("leaders chosen by the service: %v\n\n", spec.Leaders)

	// The service is untrusted: every party checks the published plan
	// against what it actually offered.
	for _, o := range offers {
		if err := atomicswap.VerifyPlan(spec, o); err != nil {
			log.Fatalf("%s rejects the plan: %v", o.Party, err)
		}
		fmt.Printf("%-6s verified the plan against their offer ✓\n", o.Party)
	}

	res, err := atomicswap.NewRunner(setup).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noutcomes:")
	for _, v := range spec.D.Vertices() {
		fmt.Printf("  %-6s %v\n", spec.PartyOf(v), res.Report.Of(v))
	}
	fmt.Printf("\nall five traders settled atomically: %v\n", res.Report.AllDeal())
}
