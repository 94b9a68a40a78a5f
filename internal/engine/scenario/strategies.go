package scenario

import (
	"math/rand"
	"sort"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// The deviation taxonomy: every named strategy the scenario DSL can
// inject, built from internal/adversary's primitives. A strategy is a
// constructor from (per-swap rng, spec, vertex) to a behavior; it
// reports ok=false when the deviation does not apply to that vertex
// (e.g. leader-only strategies on a follower), in which case the party
// stays conforming and is not counted as a deviant.
//
// Every strategy deviates from the conforming protocol of whichever
// variant the cleared component runs (core.ConformingFor): on a
// single-leader component "unlock" and "claim" below are the classic
// HTLC's one redeem call (DESIGN.md, "Protocol selection", has the
// per-deviation mapping).
//
//	silent-leader        refuse-to-unlock: completes Phase One, never
//	                     reveals its secret; everyone refunds.
//	withhold-publish     premature abort: signs up, never deploys its
//	                     contracts; counterparties abandon and refund.
//	crash                crash fault at a random phase: halts 0–2 Δ
//	                     after the start, taking its refunds with it.
//	stall-past-timelock  delays every unlock past its contract's last
//	                     timelock; the late unlock bounces off the
//	                     closed contract, so the swap aborts.
//	no-claim             never claims entering arcs: claimable escrow
//	                     is left on the table (its own loss).
//	premature-reveal     leader presents its secret the moment an
//	                     entering contract exists (Section 1's
//	                     irrational Alice).
//	corrupt-publish      publishes contracts with an inflated timelock;
//	                     verifying counterparties must reject.
//	eager-publish        publishes leaving arcs before entering arcs
//	                     are covered, violating Lemma 4.11's ordering.
type strategyFn func(rng *rand.Rand, spec *core.Spec, v digraph.Vertex) (core.Behavior, bool)

var strategies = map[string]strategyFn{
	"silent-leader": func(_ *rand.Rand, spec *core.Spec, v digraph.Vertex) (core.Behavior, bool) {
		idx, ok := spec.LeaderIndex(v)
		if !ok {
			return nil, false
		}
		return adversary.SilentLeader(idx), true
	},
	"withhold-publish": func(*rand.Rand, *core.Spec, digraph.Vertex) (core.Behavior, bool) {
		return adversary.WithholdPublications(), true
	},
	"crash": func(rng *rand.Rand, _ *core.Spec, _ digraph.Vertex) (core.Behavior, bool) {
		return &crashBehavior{phase: rng.Intn(3)}, true
	},
	"stall-past-timelock": func(_ *rand.Rand, spec *core.Spec, _ digraph.Vertex) (core.Behavior, bool) {
		// MaxTimelock is read lazily, at action time, once the engine has
		// pinned the spec's start: one tick past the last timelock is
		// strictly after every unlock (or redeem) deadline yet 4Δ inside
		// the run horizon, so the bounced call lands at a replay-stable
		// tick instead of racing teardown.
		past := func() (vtime.Ticks, bool) { return spec.MaxTimelock().Add(1), true }
		return adversary.Filtered(core.ConformingFor(spec), adversary.Filter{
			DelayUnlock: func(int, int) (vtime.Ticks, bool) { return past() },
			DelayRedeem: func(int) (vtime.Ticks, bool) { return past() },
		}), true
	},
	"no-claim": func(*rand.Rand, *core.Spec, digraph.Vertex) (core.Behavior, bool) {
		return adversary.NoClaim(), true
	},
	"premature-reveal": func(_ *rand.Rand, spec *core.Spec, v digraph.Vertex) (core.Behavior, bool) {
		if !spec.IsLeader(v) {
			return nil, false
		}
		return adversary.PrematureRevealer(), true
	},
	"corrupt-publish": func(*rand.Rand, *core.Spec, digraph.Vertex) (core.Behavior, bool) {
		return adversary.CorruptPublisher(), true
	},
	"eager-publish": func(*rand.Rand, *core.Spec, digraph.Vertex) (core.Behavior, bool) {
		return adversary.EagerPublisher(), true
	},
}

// stranding marks strategies whose deviants can legitimately leave
// assets escrowed forever (a crashed party never refunds; a claim
// withholder leaves claimable escrow; a corrupt publisher's inflated
// timelock outlives its own refund alarm). Scenarios containing them
// audit ledger integrity without the stranded-escrow check.
var stranding = map[string]bool{
	"crash":           true,
	"no-claim":        true,
	"corrupt-publish": true,
}

// Strategies lists every known deviation strategy name, sorted.
func Strategies() []string {
	out := make([]string, 0, len(strategies))
	for name := range strategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// crashBehavior halts a party `phase`·Δ after the protocol start —
// wrapping base (conforming when nil, a coalition member when the crash
// rides on a coalition draw). The halt tick depends on the spec's pinned
// start, which the engine assigns only at run setup — after behaviors
// are built — so the wrapped HaltAt is materialized on the first
// callback.
type crashBehavior struct {
	phase int
	base  core.Behavior
	inner core.Behavior
}

func (c *crashBehavior) resolve(e core.Env) core.Behavior {
	if c.inner == nil {
		spec := e.Spec()
		at := spec.Start.Add(vtime.Scale(c.phase, spec.Delta))
		base := c.base
		if base == nil {
			base = core.ConformingFor(spec)
		}
		c.inner = adversary.HaltAt(base, at)
	}
	return c.inner
}

func (c *crashBehavior) Init(e core.Env) { c.resolve(e).Init(e) }
func (c *crashBehavior) OnContract(e core.Env, arcID int, ct chain.Contract) {
	c.resolve(e).OnContract(e, arcID, ct)
}
func (c *crashBehavior) OnUnlock(e core.Env, arcID, lockIdx int, key hashkey.Hashkey) {
	c.resolve(e).OnUnlock(e, arcID, lockIdx, key)
}
func (c *crashBehavior) OnRedeem(e core.Env, arcID int, secret hashkey.Secret) {
	c.resolve(e).OnRedeem(e, arcID, secret)
}
func (c *crashBehavior) OnBroadcast(e core.Env, lockIdx int, key hashkey.Hashkey) {
	c.resolve(e).OnBroadcast(e, lockIdx, key)
}
func (c *crashBehavior) OnSettled(e core.Env, arcID int, claimed bool) {
	c.resolve(e).OnSettled(e, arcID, claimed)
}
