package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
)

func TestSwapParamsMatch(t *testing.T) {
	setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{Delta: 10, Start: 100})
	canonical := setup.Spec.ContractParams(0)

	if again := setup.Spec.ContractParams(0); !canonical.Equal(&again) {
		t.Fatal("canonical params should match themselves")
	}
	mutations := []struct {
		name   string
		mutate func(*htlc.SwapParams)
	}{
		{"contract id", func(p *htlc.SwapParams) { p.ID = "evil" }},
		{"arc id", func(p *htlc.SwapParams) { p.ArcID = 3 }},
		{"party", func(p *htlc.SwapParams) { p.Party = "mallory" }},
		{"counterparty vertex", func(p *htlc.SwapParams) { p.CounterV = 0 }},
		{"asset", func(p *htlc.SwapParams) { p.Asset = "fake" }},
		{"start", func(p *htlc.SwapParams) { p.Start = 999 }},
		{"delta", func(p *htlc.SwapParams) { p.Delta = 1 }},
		{"diam bound", func(p *htlc.SwapParams) { p.DiamBound = 9 }},
		{"broadcast flag", func(p *htlc.SwapParams) { p.Broadcast = true }},
		{"timelock", func(p *htlc.SwapParams) { p.Timelocks[1] = p.Timelocks[1].Add(1) }},
		{"lock", func(p *htlc.SwapParams) { p.Locks[0] = hashkey.Lock{1} }},
		{"leader", func(p *htlc.SwapParams) { p.Leaders[0] = 2 }},
		{"dropped lock", func(p *htlc.SwapParams) {
			p.Locks = p.Locks[:1]
			p.Leaders = p.Leaders[:1]
			p.Timelocks = p.Timelocks[:1]
		}},
		{"different digraph", func(p *htlc.SwapParams) { p.Digraph = graphgen.ThreeWay() }},
		{"nil digraph", func(p *htlc.SwapParams) { p.Digraph = nil }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := setup.Spec.ContractParams(0)
			tt.mutate(&p)
			if p.Equal(&canonical) {
				t.Errorf("mutation %q should not match", tt.name)
			}
		})
	}
}

func TestSwapParamsMatchDirectory(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	canonical := setup.Spec.ContractParams(0)

	// Missing key.
	p := setup.Spec.ContractParams(0)
	p.Directory = hashkey.Directory{}
	if p.Equal(&canonical) {
		t.Error("empty directory should not match")
	}
	// Substituted key.
	other, err := hashkey.NewSigner(0, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	p2 := setup.Spec.ContractParams(0)
	dir := make(hashkey.Directory, len(p2.Directory))
	for k, v := range p2.Directory {
		dir[k] = v
	}
	dir[0] = other.Public()
	p2.Directory = dir
	if p2.Equal(&canonical) {
		t.Error("substituted public key should not match")
	}
}

func TestSpecValidateEdgeCases(t *testing.T) {
	base := func() *Spec {
		setup := newTestSetup(t, graphgen.ThreeWay(), Config{Delta: 10, Start: 100})
		return setup.Spec
	}
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unknown kind", func(s *Spec) { s.Kind = 99 }},
		{"no leaders", func(s *Spec) { s.Leaders = nil; s.Locks = nil }},
		{"lock count mismatch", func(s *Spec) { s.Locks = append(s.Locks, hashkey.Lock{}) }},
		{"leader out of range", func(s *Spec) { s.Leaders = []digraph.Vertex{9} }},
		{"duplicate leaders", func(s *Spec) {
			s.Leaders = []digraph.Vertex{0, 0}
			s.Locks = append(s.Locks, hashkey.Lock{})
		}},
		{"party count mismatch", func(s *Spec) { s.Parties = s.Parties[:2] }},
		{"empty party id", func(s *Spec) { s.Parties[1] = "" }},
		{"duplicate party ids", func(s *Spec) { s.Parties[1] = s.Parties[0] }},
		{"missing public key", func(s *Spec) { s.Keys[1] = nil }},
		{"asset count mismatch", func(s *Spec) { s.Assets = s.Assets[:1] }},
		{"empty asset", func(s *Spec) { s.Assets[0].Asset = "" }},
		{"duplicate asset", func(s *Spec) { s.Assets[1] = s.Assets[0] }},
		{"zero delta", func(s *Spec) { s.Delta = 0 }},
		{"diam bound too small", func(s *Spec) { s.DiamBound = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base()
			tt.mutate(s)
			if err := s.Validate(false); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

// TestClearVerifyPlanRoundTrip: any ring of offers that clears also
// verifies for every offering party (property test).
func TestClearVerifyPlanRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		offers := make([]Offer, n)
		for i := range offers {
			party := chain.PartyID(string(rune('a' + i)))
			next := chain.PartyID(string(rune('a' + (i+1)%n)))
			offers[i] = Offer{Party: party, Give: []ProposedTransfer{{
				To:     next,
				Chain:  string(rune('a'+i)) + "-chain",
				Asset:  chain.AssetID(string(rune('a'+i)) + "-asset"),
				Amount: uint64(1 + rng.Intn(100)),
			}}}
		}
		setup, err := Clear(offers, Config{Rand: rng})
		if err != nil {
			return false
		}
		for _, o := range offers {
			if VerifyPlan(setup.Spec, o) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
