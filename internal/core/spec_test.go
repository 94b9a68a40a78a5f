package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// newTestSetup builds a deterministic setup over d.
func newTestSetup(t *testing.T, d *digraph.Digraph, cfg Config) *Setup {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	setup, err := NewSetup(d, cfg)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	return setup
}

func TestNewSetupDefaults(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	spec := setup.Spec
	if spec.Kind != KindGeneral {
		t.Errorf("Kind = %v, want general", spec.Kind)
	}
	if spec.Delta != DefaultDelta {
		t.Errorf("Delta = %d, want %d", spec.Delta, DefaultDelta)
	}
	if spec.Start != vtime.Ticks(DefaultDelta) {
		t.Errorf("Start = %d, want %d", spec.Start, DefaultDelta)
	}
	if len(spec.Leaders) != 1 {
		t.Errorf("Leaders = %v, want exact min FVS of size 1", spec.Leaders)
	}
	if spec.DiamBound != 2 {
		t.Errorf("DiamBound = %d, want 2", spec.DiamBound)
	}
	if spec.PartyOf(0) != "Alice" {
		t.Errorf("PartyOf(0) = %s, want vertex name", spec.PartyOf(0))
	}
	if len(setup.Secrets) != 1 || !setup.Secrets[0].Matches(spec.Locks[0]) {
		t.Error("leader secret must open its lock")
	}
}

func TestNewSetupValidationErrors(t *testing.T) {
	r := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	tests := []struct {
		name string
		d    *digraph.Digraph
		cfg  Config
		want error
	}{
		{
			name: "not strongly connected",
			d:    graphgen.NotStronglyConnected(2, 2),
			cfg:  Config{Rand: r()},
			want: ErrNotStronglyConnected,
		},
		{
			name: "leaders not FVS",
			d:    graphgen.TwoLeaderTriangle(),
			cfg:  Config{Rand: r(), Leaders: []digraph.Vertex{0}},
			want: ErrLeadersNotFVS,
		},
		{
			name: "single vertex",
			d:    digraph.FromArcs(1),
			cfg:  Config{Rand: r()},
			want: ErrSpecShape,
		},
		{
			name: "single-leader kind with two leaders",
			d:    graphgen.TwoLeaderTriangle(),
			cfg:  Config{Rand: r(), Kind: KindSingleLeader},
			want: ErrSpecShape,
		},
		{
			name: "start before one delta",
			d:    graphgen.ThreeWay(),
			cfg:  Config{Rand: r(), Start: 5, Delta: 10},
			want: ErrSpecShape,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSetup(tt.d, tt.cfg)
			if !errors.Is(err, tt.want) {
				t.Errorf("NewSetup err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestNewSetupAllowUnsafe(t *testing.T) {
	d := graphgen.NotStronglyConnected(2, 2)
	if _, err := NewSetup(d, Config{Rand: rand.New(rand.NewSource(1)), AllowUnsafe: true}); err != nil {
		t.Errorf("AllowUnsafe should skip the strong-connectivity check: %v", err)
	}
}

func TestTimelockStaircase(t *testing.T) {
	// Three-cycle, leader Alice, Δ=10, start=100, diam=2. Timelocks per
	// arc for lock 0 are Start + (2 + maxpath(tail, Alice))·Δ:
	// arc 0 (A->B): tail B, maxpath 2 -> 140
	// arc 1 (B->C): tail C, maxpath 1 -> 130
	// arc 2 (C->A): tail A, maxpath 0 -> 120
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{Delta: 10, Start: 100})
	want := map[int]vtime.Ticks{0: 140, 1: 130, 2: 120}
	for arc, w := range want {
		tl := setup.Spec.Timelocks(arc)
		if len(tl) != 1 || tl[0] != w {
			t.Errorf("Timelocks(%d) = %v, want [%d]", arc, tl, w)
		}
	}
	// The staircase property of Lemma 4.13: each arc entering a follower
	// expires strictly later than the arcs leaving it.
	if !setup.Spec.Timelocks(0)[0].After(setup.Spec.Timelocks(1)[0]) {
		t.Error("entering Bob should outlive leaving Bob")
	}
}

func TestHTLCTimeoutStaircase(t *testing.T) {
	// Section 4.6 on the shared ladder: an arc is redeemable through
	// Start + (diam + D(v, leader))·Δ — the general protocol's timelock —
	// and the (exclusive) HTLC timeout is the tick after, over the
	// three-cycle: arc 0 -> 140+1, arc 1 -> 130+1, arc 2 -> 120+1.
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{Kind: KindSingleLeader, Delta: 10, Start: 100})
	want := map[int]vtime.Ticks{0: 141, 1: 131, 2: 121}
	for arc, w := range want {
		if got := setup.Spec.HTLCTimeout(arc); got != w {
			t.Errorf("HTLCTimeout(%d) = %d, want %d", arc, got, w)
		}
		if got := setup.Spec.Timelocks(arc)[0]; got != w-1 {
			t.Errorf("Timelocks(%d)[0] = %d, want HTLCTimeout-1 = %d", arc, got, w-1)
		}
	}
}

func TestUniformTimeoutsAreEqual(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{Kind: KindUniformTimeout, Delta: 10, Start: 100})
	first := setup.Spec.HTLCTimeout(0)
	for arc := 1; arc < 3; arc++ {
		if setup.Spec.HTLCTimeout(arc) != first {
			t.Errorf("uniform timeouts differ: arc %d", arc)
		}
	}
}

func TestContractParamsConsistency(t *testing.T) {
	setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{})
	spec := setup.Spec
	for id := 0; id < spec.D.NumArcs(); id++ {
		p := spec.ContractParams(id)
		arc := spec.D.Arc(id)
		if p.Party != spec.PartyOf(arc.Head) || p.Counter != spec.PartyOf(arc.Tail) {
			t.Errorf("arc %d party/counter mismatch", id)
		}
		if len(p.Locks) != len(spec.Leaders) || len(p.Timelocks) != len(spec.Leaders) {
			t.Errorf("arc %d lock vector shape", id)
		}
		if p.ID != spec.ContractID(id) {
			t.Errorf("arc %d contract ID mismatch", id)
		}
	}
}

// TestNewSwapSharesUnlocksWhenKeysAreShort pins when a swap's contracts
// keep their unlocks in one htlc.Unlocks: on a shape where every vertex
// is a leader or has an arc to each leader (a complete digraph), every
// contract NewSwap builds shares it; on one where a conforming key can be
// longer (a ring's), none allocates it.
func TestNewSwapSharesUnlocksWhenKeysAreShort(t *testing.T) {
	for _, tc := range []struct {
		name  string
		d     *digraph.Digraph
		short bool
	}{
		{"clique-4", graphgen.Clique(4), true},
		{"two-leader-triangle", graphgen.TwoLeaderTriangle(), true},
		{"ring-3", graphgen.Cycle(3), false},
	} {
		spec := newTestSetup(t, tc.d, Config{Kind: KindGeneral}).Spec
		if spec.shape.shortKeys != tc.short {
			t.Errorf("%s: shortKeys %v, want %v", tc.name, spec.shape.shortKeys, tc.short)
		}
		for id := 0; id < spec.D.NumArcs(); id++ {
			if _, err := spec.NewSwap(id); err != nil {
				t.Fatalf("%s: NewSwap(%d): %v", tc.name, id, err)
			}
		}
		if want := tc.short; (spec.unlocks != nil) != want || want && len(spec.unlocks) != spec.D.NumArcs()*len(spec.Leaders) {
			t.Errorf("%s: unlocks of %d records after NewSwap on every arc", tc.name, len(spec.unlocks))
		}
	}
}

// TestContractIDTableMatchesLegacyFormat pins the compiled arc table to
// the identifiers fmt used to build per call — they are ledger keys and
// WAL content — for untagged, tagged and multi-chain specs.
func TestContractIDTableMatchesLegacyFormat(t *testing.T) {
	legacy := func(s *Spec, arcID int) chain.ContractID {
		if s.Tag != "" {
			return chain.ContractID(fmt.Sprintf("%s/arc%d@%s", s.Tag, arcID, s.Assets[arcID].Chain))
		}
		return chain.ContractID(fmt.Sprintf("arc%d@%s", arcID, s.Assets[arcID].Chain))
	}
	shared := make([]ArcAsset, 12)
	for id := range shared {
		shared[id] = ArcAsset{
			Chain:  []string{"btc", "eth", "sol"}[id%3],
			Asset:  chain.AssetID(fmt.Sprintf("coin-%d", id)),
			Amount: 1,
		}
	}
	for _, tt := range []struct {
		name string
		d    *digraph.Digraph
		cfg  Config
	}{
		{"untagged", graphgen.ThreeWay(), Config{}},
		{"tagged", graphgen.ThreeWay(), Config{Tag: "swap-000042"}},
		{"tagged multi-chain", graphgen.Clique(4), Config{Tag: "swap-001234", Assets: shared}},
		{"untagged multi-chain", graphgen.Clique(4), Config{Assets: shared}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			spec := newTestSetup(t, tt.d, tt.cfg).Spec
			for id := 0; id < spec.D.NumArcs(); id++ {
				want := legacy(spec, id)
				if got := spec.ContractID(id); got != want {
					t.Errorf("arc %d: table says %q, legacy format %q", id, got, want)
				}
				if got := spec.ContractParams(id).ID; got != want {
					t.Errorf("arc %d: contract params carry %q, want %q", id, got, want)
				}
			}
		})
	}
}

func TestLeaderIndex(t *testing.T) {
	setup := newTestSetup(t, graphgen.TwoLeaderTriangle(), Config{})
	spec := setup.Spec
	for i, l := range spec.Leaders {
		idx, ok := spec.LeaderIndex(l)
		if !ok || idx != i {
			t.Errorf("LeaderIndex(%d) = (%d, %v), want (%d, true)", l, idx, ok, i)
		}
		if !spec.IsLeader(l) {
			t.Errorf("IsLeader(%d) should be true", l)
		}
	}
	followers := 0
	for _, v := range spec.D.Vertices() {
		if !spec.IsLeader(v) {
			followers++
		}
	}
	if followers != spec.D.NumVertices()-len(spec.Leaders) {
		t.Error("follower count mismatch")
	}
}

func TestVertexOf(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{})
	v, ok := setup.Spec.VertexOf("Bob")
	if !ok || v != 1 {
		t.Errorf("VertexOf(Bob) = (%d, %v)", v, ok)
	}
	if _, ok := setup.Spec.VertexOf("mallory"); ok {
		t.Error("unknown party should not resolve")
	}
}

func TestMaxTimelockAndHorizon(t *testing.T) {
	setup := newTestSetup(t, graphgen.ThreeWay(), Config{Delta: 10, Start: 100})
	if got := setup.Spec.MaxTimelock(); got != 140 {
		t.Errorf("MaxTimelock = %d, want 140", got)
	}
	if got := setup.Spec.Horizon(); got != 180 {
		t.Errorf("Horizon = %d, want 180", got)
	}
}

func TestKindString(t *testing.T) {
	if KindGeneral.String() != "general" || KindSingleLeader.String() != "single-leader" {
		t.Error("kind names")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind fallback")
	}
}
