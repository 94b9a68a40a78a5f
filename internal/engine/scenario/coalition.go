package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// Coalition injects a CORRELATED adversarial group: where a Deviation
// flips an independent coin per party, a coalition entry draws once per
// cleared swap and, on a hit, converts a contiguous block of the swap's
// parties into one coordinated cohort. That correlation is the point —
// Herlihy's adversary is "any coalition", and k colluding parties can do
// strictly more than k independent deviants (shared secrets travel
// coalition-only signature paths; see adversary.Coalition).
//
// Strategies:
//
//	cartel      secret-sharing cartel (adversary.Coalition): members
//	            share leader secrets off-chain, unlock entering arcs
//	            early, and randomly withhold action categories (Drop);
//	            Halt additionally crashes members at a random phase.
//	            Withheld claims/refunds can strand escrow.
//	punishment  Lemma 4.11 cartel (adversary.Punishment): members escrow
//	            nothing at all — no publish, no unlock — forcing every
//	            conforming counterparty to wait out its timelocks and
//	            refund. Individually rational and non-stranding; the
//	            canonical griefing attack the economics layer prices.
//	flood       intake flooding: the coalition is not drawn per swap but
//	            materialized in the offer stream itself — Rate decides
//	            the flood fraction of total offered load, generated from
//	            a small reused identity pool (engine.FloodOffer) riding
//	            on top of the organic schedule. Pair with FairShed to
//	            audit that shedding lands on the flooders.
type Coalition struct {
	// Strategy is "cartel", "punishment", or "flood".
	Strategy string `json:"strategy"`
	// Rate: for cartel/punishment, the per-swap probability that the
	// coalition forms in that swap (cumulative across entries, like
	// Deviation rates). For flood, the fraction of total offered load
	// that is coalition traffic, in (0, 1) — 0.75 means three flood
	// offers ride on every organic one.
	Rate float64 `json:"rate"`
	// Size: for cartel/punishment, the coalition's party count per swap
	// (clamped to [2, n-1]; 0 means about half the ring). For flood, the
	// flooder identity-pool size in ring groups (0 means 2).
	Size int `json:"size,omitempty"`
	// Drop is the cartel's per-action-category withholding probability
	// (0 means 0.2; ignored by other strategies).
	Drop float64 `json:"drop,omitempty"`
	// Halt is the per-member probability of a crash fault on top of the
	// strategy (cartel only).
	Halt float64 `json:"halt,omitempty"`
}

// coalitionStrategies names the valid Coalition.Strategy values. Kept
// separate from the per-party strategy taxonomy: coalitions are drawn
// per swap as a correlated group, so they live in their own DSL field.
var coalitionStrategies = map[string]bool{
	"cartel":     true,
	"punishment": true,
	"flood":      true,
}

// validateCoalitions checks the scenario's coalition entries.
func (sc Scenario) validateCoalitions() error {
	total, floods := 0.0, 0
	for _, c := range sc.Coalitions {
		if !coalitionStrategies[c.Strategy] {
			return fmt.Errorf("scenario %q: unknown coalition strategy %q (want cartel, punishment, or flood)",
				sc.Name, c.Strategy)
		}
		if c.Rate < 0 || c.Rate > 1 {
			return fmt.Errorf("scenario %q: coalition %s rate %v outside [0,1]",
				sc.Name, c.Strategy, c.Rate)
		}
		if c.Drop < 0 || c.Drop > 1 || c.Halt < 0 || c.Halt > 1 {
			return fmt.Errorf("scenario %q: coalition %s Drop/Halt outside [0,1]", sc.Name, c.Strategy)
		}
		if c.Strategy == "flood" {
			floods++
			if c.Rate <= 0 || c.Rate >= 1 {
				return fmt.Errorf("scenario %q: flood coalition rate %v outside (0,1)", sc.Name, c.Rate)
			}
			continue
		}
		total += c.Rate
	}
	if total > 1 {
		return fmt.Errorf("scenario %q: coalition rates sum to %v > 1", sc.Name, total)
	}
	if floods > 1 {
		return fmt.Errorf("scenario %q: at most one flood coalition", sc.Name)
	}
	return nil
}

// floodCoalition returns the scenario's flood entry, if any.
func (sc Scenario) floodCoalition() (Coalition, bool) {
	for _, c := range sc.Coalitions {
		if c.Strategy == "flood" {
			return c, true
		}
	}
	return Coalition{}, false
}

// floodFactor converts a flood fraction r of total offered load into the
// generator's whole-ring multiplier: factor extra flood rings per
// organic ring means a flood fraction of factor/(1+factor), so factor =
// round(r/(1−r)), at least 1.
func floodFactor(rate float64) int {
	f := int(math.Round(rate / (1 - rate)))
	if f < 1 {
		f = 1
	}
	return f
}

// swapCoalitions is the per-swap coalition ladder: the cartel/punishment
// entries, in declaration order (flood lives in the offer stream, not
// the draw).
func (sc Scenario) swapCoalitions() []Coalition {
	out := make([]Coalition, 0, len(sc.Coalitions))
	for _, c := range sc.Coalitions {
		if c.Strategy != "flood" {
			out = append(out, c)
		}
	}
	return out
}

// applyCoalition materializes one coalition inside one cleared swap: a
// contiguous block of k vertices starting at a seeded position (ring
// adjacency is what gives a cartel its coalition-only signature paths),
// behaviors from the matching adversary constructor, every member tagged
// "coalition-<strategy>". Halt wraps members in the scenario's lazy
// crash shim — the halt tick depends on the spec's start, pinned only at
// run setup, so adversary.Coalition's own eager HaltProb cannot be used
// here (it would read a zero start and halt everyone at tick ~0).
func applyCoalition(c Coalition, setup *core.Setup, rng *rand.Rand,
	sb *engine.SwapBehaviors, claimed map[digraph.Vertex]bool) {

	n := setup.Spec.D.NumVertices()
	if n < 3 {
		return // no room for both a coalition (≥2) and a conforming victim
	}
	k := c.Size
	if k <= 0 {
		k = (n + 1) / 2
	}
	if k < 2 {
		k = 2
	}
	if k > n-1 {
		k = n - 1
	}
	start := rng.Intn(n)
	members := make([]digraph.Vertex, k)
	for i := range members {
		members[i] = digraph.Vertex((start + i) % n)
	}

	var behaviors map[digraph.Vertex]core.Behavior
	switch c.Strategy {
	case "punishment":
		behaviors = adversary.Punishment(members)
	case "cartel":
		drop := c.Drop
		if drop <= 0 {
			drop = 0.2
		}
		behaviors = adversary.Coalition(adversary.CoalitionConfig{
			Setup:    setup,
			Members:  members,
			Seed:     rng.Int63(),
			DropProb: drop,
			HaltProb: 0, // see doc comment: halts are applied lazily below
		})
	}

	if sb.Behaviors == nil {
		sb.Behaviors = make(map[digraph.Vertex]core.Behavior)
		sb.Deviants = make(map[digraph.Vertex]string)
	}
	// adversary constructors sort their member sets, so iterating the
	// members slice (already contiguous from start) keeps the rng draw
	// order — and therefore the halt assignment — replay-stable.
	for _, v := range members {
		b := behaviors[v]
		if c.Halt > 0 && rng.Float64() < c.Halt {
			b = &crashBehavior{phase: rng.Intn(3), base: b}
		}
		sb.Behaviors[v] = b
		sb.Deviants[v] = "coalition-" + c.Strategy
		claimed[v] = true
	}
}

// tagFloodParties marks a swap's flooder-identity vertices as
// "coalition-flood" deviants. Flooders run the conforming protocol —
// their attack is volume, not protocol deviation — but the tag routes
// their capital into the DeviantLock side of the economics split and
// keeps Theorem 4.9's conforming-party quantifier honest: a flooded
// run's safety check still covers exactly the organic parties.
func tagFloodParties(setup *core.Setup, sb *engine.SwapBehaviors, claimed map[digraph.Vertex]bool) {
	spec := setup.Spec
	for v := 0; v < spec.D.NumVertices(); v++ {
		vx := digraph.Vertex(v)
		if claimed[vx] {
			continue
		}
		if strings.HasPrefix(string(spec.PartyOf(vx)), engine.FloodPartyPrefix) {
			if sb.Deviants == nil {
				sb.Behaviors = make(map[digraph.Vertex]core.Behavior)
				sb.Deviants = make(map[digraph.Vertex]string)
			}
			sb.Deviants[vx] = "coalition-flood"
			claimed[vx] = true
		}
	}
}
