package atomicswap_test

import (
	"fmt"
	"math/rand"
	"testing"

	atomicswap "github.com/go-atomicswap/atomicswap"
)

// ExampleNewRunner is the README's quickstart, line for line.
func ExampleNewRunner() {
	d := atomicswap.ThreeWay() // Alice -> Bob -> Carol -> Alice
	setup, _ := atomicswap.NewSetup(d, atomicswap.Config{})
	res, _ := atomicswap.NewRunner(setup).Run()
	fmt.Println(res.Report.AllDeal())
	// Output: true
}

// TestFacadeQuickstart is the quickstart with its errors checked.
func TestFacadeQuickstart(t *testing.T) {
	d := atomicswap.ThreeWay()
	setup, err := atomicswap.NewSetup(d, atomicswap.Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	res, err := atomicswap.NewRunner(setup).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Fatal("quickstart should end AllDeal")
	}
}

func TestFacadeMarketClearing(t *testing.T) {
	offers := []atomicswap.Offer{
		{Party: "alice", Give: []atomicswap.ProposedTransfer{{To: "bob", Chain: "altcoin", Asset: "alt", Amount: 100}}},
		{Party: "bob", Give: []atomicswap.ProposedTransfer{{To: "carol", Chain: "bitcoin", Asset: "btc", Amount: 1}}},
		{Party: "carol", Give: []atomicswap.ProposedTransfer{{To: "alice", Chain: "titles", Asset: "car", Amount: 1}}},
	}
	setup, err := atomicswap.Clear(offers, atomicswap.Config{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if err := atomicswap.VerifyPlan(setup.Spec, o); err != nil {
			t.Errorf("VerifyPlan(%s): %v", o.Party, err)
		}
	}
	res, err := atomicswap.NewRunner(setup).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.AllDeal() {
		t.Error("cleared swap should end AllDeal")
	}
}

func TestFacadeAdversary(t *testing.T) {
	setup, err := atomicswap.NewSetup(atomicswap.ThreeWay(), atomicswap.Config{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	r := atomicswap.NewRunner(setup)
	r.SetBehavior(1, atomicswap.HaltAt(atomicswap.NewConforming(), 0))
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Conforming {
		if res.Report.Of(v) == atomicswap.Underwater {
			t.Error("conforming party underwater")
		}
	}
}

func TestFacadeAudit(t *testing.T) {
	setup, err := atomicswap.NewSetup(atomicswap.ThreeWay(), atomicswap.Config{Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	r := atomicswap.NewRunner(setup)
	r.SetBehavior(1, atomicswap.WithholdPublications())
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	faults := atomicswap.Audit(setup.Spec, res)
	if len(faults) != 1 || faults[0].Vertex != 1 {
		t.Errorf("faults = %v, want exactly Bob blamed", faults)
	}
}

func TestFacadeBondSettlement(t *testing.T) {
	setup, err := atomicswap.NewSetup(atomicswap.ThreeWay(), atomicswap.Config{Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	r := atomicswap.NewRunner(setup)
	r.SetBehavior(1, atomicswap.WithholdPublications())
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := atomicswap.Settle(setup.Spec, atomicswap.Audit(setup.Spec, res), 100)
	if len(s.Slashed) != 1 || s.Slashed[0] != "Bob" {
		t.Errorf("slashed = %v, want [Bob]", s.Slashed)
	}
	if s.Payout["Alice"] != 150 || s.Payout["Carol"] != 150 {
		t.Errorf("payouts = %v", s.Payout)
	}
}

func TestFacadePebble(t *testing.T) {
	d := atomicswap.ThreeWay()
	if res := atomicswap.LazyPebble(d, []atomicswap.Vertex{0}); !res.Complete {
		t.Error("lazy pebble game should complete")
	}
	if res := atomicswap.EagerPebble(d.Transpose(), 0); !res.Complete {
		t.Error("eager pebble game should complete")
	}
}
