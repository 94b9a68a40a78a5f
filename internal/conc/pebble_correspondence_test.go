package conc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/pebble"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestPhaseOneEqualsLazyPebbleGame cross-validates the runner against the
// paper's reference dynamics: with everyone conforming, the publication
// tick of every arc's contract is EXACTLY (Start − Δ) + round·Δ, where
// round is the arc's round in the lazy pebble game (Section 4.4). The
// protocol is the pebble game, tick for tick.
func TestPhaseOneEqualsLazyPebbleGame(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(seed%6+6)%6 // 3..8 vertexes
		d := graphgen.RandomStronglyConnected(n, 0.3, seed)
		setup, err := core.NewSetup(d, core.Config{Rand: rand.New(rand.NewSource(seed + 5))})
		if err != nil {
			return false
		}
		res, err := NewRunner(setup).Run()
		if err != nil || !res.Report.AllDeal() {
			return false
		}
		game := pebble.Lazy(d, setup.Spec.Leaders)
		if !game.Complete {
			return false
		}
		pubAt := make(map[int]vtime.Ticks)
		for _, ev := range res.Log.OfKind(trace.KindContractPublished) {
			pubAt[ev.Arc] = ev.At
		}
		base := setup.Spec.Start.Add(-vtime.Duration(setup.Spec.Delta))
		for id := 0; id < d.NumArcs(); id++ {
			want := base.Add(vtime.Scale(game.Round[id], setup.Spec.Delta))
			if pubAt[id] != want {
				t.Logf("seed %d arc %d: published %d, pebble round %d predicts %d",
					seed, id, pubAt[id], game.Round[id], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPhaseTwoBoundedByEagerGame: every unlock of lock i lands no later
// than reveal'_i + round·Δ, where round is the arc's eager-game round on
// the transpose and reveal'_i = max(reveal_i, lastPublish+Δ) — a leader
// can reveal while Phase One still straggles elsewhere, and a hashkey
// cannot be presented on a contract that does not exist yet, so the
// eager dynamics are only guaranteed once every contract is visible.
func TestPhaseTwoBoundedByEagerGame(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(seed%6+6)%6
		d := graphgen.RandomStronglyConnected(n, 0.3, seed+100)
		setup, err := core.NewSetup(d, core.Config{Rand: rand.New(rand.NewSource(seed + 6))})
		if err != nil {
			return false
		}
		res, err := NewRunner(setup).Run()
		if err != nil || !res.Report.AllDeal() {
			return false
		}
		// Per-lock reveal times from the trace, floored at the moment the
		// last contract became universally visible.
		lastPub, _ := res.Log.Last(trace.KindContractPublished)
		allVisible := lastPub.At.Add(vtime.Duration(setup.Spec.Delta))
		reveal := make(map[int]vtime.Ticks)
		for _, ev := range res.Log.OfKind(trace.KindSecretRevealed) {
			reveal[ev.Lock] = ev.At
			if ev.At.Before(allVisible) {
				reveal[ev.Lock] = allVisible
			}
		}
		dt := d.Transpose()
		for i, leader := range setup.Spec.Leaders {
			game := pebble.Eager(dt, leader)
			if !game.Complete {
				return false
			}
			for _, ev := range res.Log.OfKind(trace.KindUnlocked) {
				if ev.Lock != i {
					continue
				}
				bound := reveal[i].Add(vtime.Scale(game.Round[ev.Arc], setup.Spec.Delta))
				if ev.At.After(bound) {
					t.Logf("seed %d lock %d arc %d: unlocked %d after eager bound %d",
						seed, i, ev.Arc, ev.At, bound)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
