package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
)

// threeWayOffers is the paper's motivating deal as offers: Alice pays
// alt-coins to Bob, Bob pays bitcoins to Carol, Carol signs over the
// Cadillac title to Alice.
func threeWayOffers() []Offer {
	return []Offer{
		{Party: "alice", Give: []ProposedTransfer{{To: "bob", Chain: "altcoin", Asset: "alt-100", Amount: 100}}},
		{Party: "bob", Give: []ProposedTransfer{{To: "carol", Chain: "bitcoin", Asset: "btc-1", Amount: 1}}},
		{Party: "carol", Give: []ProposedTransfer{{To: "alice", Chain: "titles", Asset: "cadillac", Amount: 1}}},
	}
}

func TestClearThreeWay(t *testing.T) {
	setup, err := Clear(threeWayOffers(), Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatalf("Clear: %v", err)
	}
	spec := setup.Spec
	if spec.D.NumVertices() != 3 || spec.D.NumArcs() != 3 {
		t.Fatalf("digraph = %v", spec.D)
	}
	if !spec.D.StronglyConnected() {
		t.Error("cleared digraph must be strongly connected")
	}
	if len(spec.Leaders) != 1 {
		t.Errorf("leaders = %v, want a single leader for a 3-cycle", spec.Leaders)
	}
	// Parties are sorted: alice=0, bob=1, carol=2.
	if spec.PartyOf(0) != "alice" || spec.PartyOf(1) != "bob" || spec.PartyOf(2) != "carol" {
		t.Errorf("party order = %v", spec.Parties)
	}
}

func TestClearRejections(t *testing.T) {
	base := threeWayOffers()
	tests := []struct {
		name   string
		offers []Offer
		want   error
	}{
		{
			name:   "single offer",
			offers: base[:1],
			want:   ErrSpecShape,
		},
		{
			name: "empty give",
			offers: []Offer{
				{Party: "alice"},
				{Party: "bob", Give: []ProposedTransfer{{To: "alice", Chain: "c", Asset: "x"}}},
			},
			want: ErrEmptyOffer,
		},
		{
			name: "self transfer",
			offers: []Offer{
				{Party: "alice", Give: []ProposedTransfer{{To: "alice", Chain: "c", Asset: "x"}}},
				{Party: "bob", Give: []ProposedTransfer{{To: "alice", Chain: "c2", Asset: "y"}}},
			},
			want: ErrSelfTransfer,
		},
		{
			name: "unknown recipient",
			offers: []Offer{
				{Party: "alice", Give: []ProposedTransfer{{To: "mallory", Chain: "c", Asset: "x"}}},
				{Party: "bob", Give: []ProposedTransfer{{To: "alice", Chain: "c2", Asset: "y"}}},
			},
			want: ErrUnknownParty,
		},
		{
			name:   "duplicate party",
			offers: append(append([]Offer{}, base...), base[0]),
			want:   ErrDuplicateOffer,
		},
		{
			name: "not strongly connected",
			offers: []Offer{
				{Party: "alice", Give: []ProposedTransfer{{To: "bob", Chain: "c", Asset: "x"}}},
				{Party: "bob", Give: []ProposedTransfer{{To: "alice", Chain: "c2", Asset: "y"}}},
				{Party: "carol", Give: []ProposedTransfer{{To: "alice", Chain: "c3", Asset: "z"}}},
			},
			want: ErrNotStronglyConnected,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Clear(tt.offers, Config{Rand: rand.New(rand.NewSource(1))})
			if !errors.Is(err, tt.want) {
				t.Errorf("Clear err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestClearRejectsPresetPartiesOrAssets(t *testing.T) {
	if _, err := Clear(threeWayOffers(), Config{Parties: []chain.PartyID{"x"}}); !errors.Is(err, ErrSpecShape) {
		t.Errorf("preset parties err = %v, want ErrSpecShape", err)
	}
}

func TestVerifyPlan(t *testing.T) {
	offers := threeWayOffers()
	setup, err := Clear(offers, Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if err := VerifyPlan(setup.Spec, o); err != nil {
			t.Errorf("VerifyPlan(%s): %v", o.Party, err)
		}
	}
	// A party not in the plan.
	if err := VerifyPlan(setup.Spec, Offer{Party: "mallory"}); !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("unknown party err = %v, want ErrPlanMismatch", err)
	}
	// An offer whose transfer differs from the plan.
	bad := Offer{Party: "alice", Give: []ProposedTransfer{{To: "carol", Chain: "altcoin", Asset: "alt-100", Amount: 100}}}
	if err := VerifyPlan(setup.Spec, bad); !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("tampered plan err = %v, want ErrPlanMismatch", err)
	}
	// An offer with a different amount.
	bad2 := Offer{Party: "alice", Give: []ProposedTransfer{{To: "bob", Chain: "altcoin", Asset: "alt-100", Amount: 999}}}
	if err := VerifyPlan(setup.Spec, bad2); !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("amount mismatch err = %v, want ErrPlanMismatch", err)
	}
	// An offer with fewer transfers than the plan assigns.
	bad3 := Offer{Party: "alice", Give: nil}
	if err := VerifyPlan(setup.Spec, bad3); !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("count mismatch err = %v, want ErrPlanMismatch", err)
	}
}
