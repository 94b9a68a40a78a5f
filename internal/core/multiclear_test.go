package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
)

func give(to chain.PartyID, ch string, asset chain.AssetID) ProposedTransfer {
	return ProposedTransfer{To: to, Chain: ch, Asset: asset, Amount: 1}
}

func ring(parties ...chain.PartyID) []Offer {
	offers := make([]Offer, len(parties))
	for i, p := range parties {
		next := parties[(i+1)%len(parties)]
		offers[i] = Offer{Party: p, Give: []ProposedTransfer{
			give(next, "chain-"+string(p), chain.AssetID("asset-"+string(p))),
		}}
	}
	return offers
}

func TestPartitionDisjointRings(t *testing.T) {
	offers := append(ring("a", "b", "c"), ring("x", "y")...)
	b, err := PartitionOffers(offers)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Groups) != 2 {
		t.Fatalf("want 2 groups, got %d", len(b.Groups))
	}
	if len(b.Residual) != 0 {
		t.Fatalf("want no residual, got %d", len(b.Residual))
	}
	if len(b.Groups[0]) != 3 || b.Groups[0][0].Party != "a" {
		t.Fatalf("group 0 wrong: %+v", b.Groups[0])
	}
	if len(b.Groups[1]) != 2 || b.Groups[1][0].Party != "x" {
		t.Fatalf("group 1 wrong: %+v", b.Groups[1])
	}
}

func TestPartitionResidualMissingRecipient(t *testing.T) {
	// "c" transfers to "d", who submitted nothing: the whole a->b->c ring
	// cannot clear because dropping c breaks connectivity for a and b too.
	offers := ring("a", "b", "c")
	offers[2].Give = append(offers[2].Give, give("d", "xchain", "xasset"))
	b, err := PartitionOffers(offers)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Groups) != 0 {
		t.Fatalf("want no groups, got %d", len(b.Groups))
	}
	if len(b.Residual) != 3 {
		t.Fatalf("want 3 residual offers, got %d", len(b.Residual))
	}
}

func TestPartitionCascadingRemoval(t *testing.T) {
	// A healthy pair (x,y) plus a chain a->b->c->missing: the pair must
	// survive the cascade that removes a, b, and c.
	offers := append(ring("x", "y"),
		Offer{Party: "a", Give: []ProposedTransfer{give("b", "c1", "s1")}},
		Offer{Party: "b", Give: []ProposedTransfer{give("c", "c2", "s2")}},
		Offer{Party: "c", Give: []ProposedTransfer{give("nobody", "c3", "s3")}},
	)
	b, err := PartitionOffers(offers)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Groups) != 1 || len(b.Groups[0]) != 2 {
		t.Fatalf("want the (x,y) group to survive, got %+v", b.Groups)
	}
	if len(b.Residual) != 3 {
		t.Fatalf("want 3 residual, got %d", len(b.Residual))
	}
}

// TestPartitionerReuseMatchesFresh drives one Partitioner through batches
// of different shapes and sizes — the way a clearing engine does, round
// after round — and requires every answer to equal a fresh
// PartitionOffers: nothing may leak from one call's working memory into
// the next call's result, or into a batch already returned.
func TestPartitionerReuseMatchesFresh(t *testing.T) {
	cascade := append(ring("x", "y"),
		Offer{Party: "a", Give: []ProposedTransfer{give("b", "c1", "s1")}},
		Offer{Party: "b", Give: []ProposedTransfer{give("c", "c2", "s2")}},
		Offer{Party: "c", Give: []ProposedTransfer{give("nobody", "c3", "s3")}},
	)
	clique := []Offer{
		{Party: "k0", Give: []ProposedTransfer{give("k1", "c", "a01"), give("k2", "c", "a02")}},
		{Party: "k1", Give: []ProposedTransfer{give("k0", "c", "a10"), give("k2", "c", "a12")}},
		{Party: "k2", Give: []ProposedTransfer{give("k0", "c", "a20"), give("k1", "c", "a21")}},
	}
	rounds := [][]Offer{
		append(ring("m", "n", "o"), ring("q", "p")...),
		cascade,
		ring("solo", "absent")[:1],
		append(append(ring("z", "v", "u", "w"), clique...), cascade...),
		clique,
		nil,
	}
	var p Partitioner
	var kept []*Batch
	for i, offers := range rounds {
		got, err := p.Partition(offers)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		want, err := PartitionOffers(offers)
		if err != nil {
			t.Fatalf("round %d (fresh): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: reused partitioner gave\n%+v\nfresh gave\n%+v", i, got, want)
		}
		kept = append(kept, got, want)
	}
	for i := 0; i < len(kept); i += 2 {
		if !reflect.DeepEqual(kept[i], kept[i+1]) {
			t.Fatalf("round %d's batch changed after later rounds ran", i/2)
		}
	}
	if _, err := p.Partition([]Offer{{Party: "a"}}); !errors.Is(err, ErrEmptyOffer) {
		t.Fatalf("want ErrEmptyOffer, got %v", err)
	}
	if b, err := p.Partition(clique); err != nil || len(b.Groups) != 1 || len(b.Groups[0]) != 3 {
		t.Fatalf("partitioner unusable after an error: %+v, %v", b, err)
	}
}

func TestPartitionRejectsStructuralErrors(t *testing.T) {
	if _, err := PartitionOffers([]Offer{{Party: "a"}}); !errors.Is(err, ErrEmptyOffer) {
		t.Fatalf("want ErrEmptyOffer, got %v", err)
	}
	dup := append(ring("a", "b"), Offer{Party: "a", Give: []ProposedTransfer{give("b", "c", "s")}})
	if _, err := PartitionOffers(dup); !errors.Is(err, ErrDuplicateOffer) {
		t.Fatalf("want ErrDuplicateOffer, got %v", err)
	}
	self := []Offer{{Party: "a", Give: []ProposedTransfer{give("a", "c", "s")}}}
	if _, err := PartitionOffers(self); !errors.Is(err, ErrSelfTransfer) {
		t.Fatalf("want ErrSelfTransfer, got %v", err)
	}
}

func TestClearBatchProducesValidTaggedSetups(t *testing.T) {
	offers := append(ring("a", "b", "c"), ring("x", "y")...)
	setups, residual, err := ClearBatch(offers, Config{
		Tag:  "round7",
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(setups) != 2 || len(residual) != 0 {
		t.Fatalf("want 2 setups and no residual, got %d/%d", len(setups), len(residual))
	}
	seen := map[chain.ContractID]bool{}
	for _, s := range setups {
		if err := s.Spec.Validate(false); err != nil {
			t.Fatalf("cleared spec invalid: %v", err)
		}
		if s.Spec.Tag == "" {
			t.Fatal("cleared spec missing tag")
		}
		for id := 0; id < s.Spec.D.NumArcs(); id++ {
			cid := s.Spec.ContractID(id)
			if seen[cid] {
				t.Fatalf("contract ID %s reused across swaps", cid)
			}
			seen[cid] = true
		}
	}
	// Every party can still verify the plan that contains it.
	for _, o := range offers {
		verified := false
		for _, s := range setups {
			if err := VerifyPlan(s.Spec, o); err == nil {
				verified = true
				break
			}
		}
		if !verified {
			t.Fatalf("offer from %s verifies against no cleared plan", o.Party)
		}
	}
}
