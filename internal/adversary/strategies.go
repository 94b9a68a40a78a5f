package adversary

import (
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Named strategies covering every deviation the paper discusses.

// SilentLeader conforms through Phase One but never releases its own
// secret (no unlocks of its own lock, no broadcast; under the single-leader
// variant no redeem — there the leader's redeem is the only reveal).
// Everyone refunds; only lockup time is lost — the griefing DoS of
// Section 5.
func SilentLeader(lockIdx int) core.Behavior {
	return Filtered(Conforming(), Filter{
		DropUnlock:    func(_, l int) bool { return l == lockIdx },
		DropRedeem:    func(int) bool { return true },
		DropBroadcast: func(l int) bool { return l == lockIdx },
	})
}

// WithholdPublications drops contract publication on the given arcs (all
// arcs when none are given) — a party that signs up and then starves the
// deployment phase.
func WithholdPublications(arcs ...int) core.Behavior {
	set := make(map[int]bool, len(arcs))
	for _, a := range arcs {
		set[a] = true
	}
	return Filtered(Conforming(), Filter{
		DropPublish: func(arc int) bool { return len(set) == 0 || set[arc] },
	})
}

// NoClaim never claims its entering arcs: the contracts stay fully
// unlocked bearer rights. Demonstrates that a lazy counterparty harms
// only itself (and that "triggered" must mean claimable, not claimed).
// A classic HTLC has no unlocked-but-unclaimed state — its redeem is the
// claim — so there the lazy party never redeems: its entering escrow
// refunds upstream, and it is still the only one worse off.
func NoClaim() core.Behavior {
	return Filtered(Conforming(), Filter{
		DropClaim:  func(int) bool { return true },
		DropRedeem: func(int) bool { return true },
	})
}

// LastMomentRedeemer conforms under an HTLC variant except that every
// redeem is postponed to the last tick its contract accepts (timeout−1).
// Against uniform timeouts this is the Section 1 attack that strands the
// upstream party; against the Section 4.6 staircase it is harmless.
func LastMomentRedeemer() core.Behavior {
	return &wrapped{inner: core.NewConformingHTLC(), wrap: func(e core.Env) core.Env {
		return &filteredEnv{Env: e, f: Filter{
			DelayRedeem: func(arcID int) (vtime.Ticks, bool) {
				return e.Spec().HTLCTimeout(arcID).Add(-1), true
			},
		}}
	}}
}

// LastMomentUnlocker is the hashkey-protocol analogue: every unlock is
// postponed to its hashkey's inclusive deadline start + (diam+|p|)·Δ. The
// path-dependent deadlines make it harmless (experiment E11).
func LastMomentUnlocker() core.Behavior {
	inner := core.NewConforming()
	return &wrapped{inner: inner, wrap: func(e core.Env) core.Env {
		return &lastUnlockEnv{Env: e}
	}}
}

type lastUnlockEnv struct {
	core.Env
}

func (e *lastUnlockEnv) Unlock(arcID, lockIdx int, key hashkey.Hashkey) error {
	spec := e.Spec()
	deadline := spec.Start.Add(vtime.Scale(spec.DiamBound+key.PathLen(), spec.Delta))
	if deadline.After(e.Now()) {
		e.Note(trace.KindDeviation, arcID, lockIdx, "holding unlock to the deadline")
		e.Env.At(deadline, func() { _ = e.Env.Unlock(arcID, lockIdx, key) })
		return nil
	}
	return e.Env.Unlock(arcID, lockIdx, key)
}

// PrematureRevealer is the "irrational Alice" of Section 1: a leader that
// presents its secret on an entering arc's contract as soon as that
// contract exists, without waiting for Phase One to complete. Whoever is
// upstream learns the secret early; only the revealer can end up worse
// off.
func PrematureRevealer() core.Behavior {
	return &premature{Conforming()}
}

type premature struct{ core.Behavior }

func (p *premature) OnContract(e core.Env, arcID int, c chain.Contract) {
	if secret, idx, ok := e.Secret(); ok && e.Spec().D.Arc(arcID).Tail == e.Vertex() {
		e.Note(trace.KindDeviation, arcID, idx, "premature secret reveal")
		if e.Spec().Kind == core.KindGeneral {
			_ = e.Unlock(arcID, idx, hashkey.New(secret, e.Signer()))
		} else {
			_ = e.Redeem(arcID, secret)
		}
	}
	p.Behavior.OnContract(e, arcID, c)
}

// EagerPublisher violates Lemma 4.11: it publishes contracts on its
// leaving arcs at Init without waiting for its entering arcs. Combined
// with a withholding coalition this leaves it Underwater — the experiment
// that shows why Phase One's ordering is load-bearing.
func EagerPublisher() core.Behavior {
	return &eager{Conforming()}
}

type eager struct{ core.Behavior }

func (g *eager) Init(e core.Env) {
	g.Behavior.Init(e)
	for _, arc := range e.Spec().D.Out(e.Vertex()) {
		if _, published := e.Contract(arc); !published {
			e.Note(trace.KindDeviation, arc, -1, "publishing before entering arcs are covered")
			_ = e.Publish(arc)
		}
	}
}

// CorruptPublisher publishes deliberately wrong contracts on its leaving
// arcs: the asset is right but a timelock (the classic HTLC's timeout) is
// inflated by one Δ, so a verifying counterparty must reject the contract
// and abandon (Phase One's "verifies that contract is a correct swap
// contract" check).
func CorruptPublisher() core.Behavior {
	return &wrapped{inner: Conforming(), wrap: func(e core.Env) core.Env {
		return &corruptEnv{Env: e}
	}}
}

type corruptEnv struct {
	core.Env
}

func (e *corruptEnv) Publish(arcID int) error {
	spec := e.Spec()
	if spec.Kind != core.KindGeneral {
		p := spec.HTLCParams(arcID)
		p.Timeout = p.Timeout.Add(spec.Delta)
		e.Note(trace.KindDeviation, arcID, -1, "publishing a corrupted contract (inflated timeout)")
		return e.Env.PublishHTLCParams(p)
	}
	p := spec.ContractParams(arcID)
	p.Timelocks[len(p.Timelocks)-1] = p.Timelocks[len(p.Timelocks)-1].Add(vtime.Duration(p.Delta))
	e.Note(trace.KindDeviation, arcID, -1, "publishing a corrupted contract (inflated timelock)")
	return e.Env.PublishSwapParams(p)
}

// Step is one scripted action.
type Step struct {
	At vtime.Ticks
	Do func(e core.Env)
}

// Scripted runs explicit steps on top of an optional inner behavior
// (NopBehavior when nil) — the building block for bespoke coalition
// scenarios such as the Lemma 4.11 punishment.
func Scripted(inner core.Behavior, steps ...Step) core.Behavior {
	if inner == nil {
		inner = core.NopBehavior{}
	}
	return &scripted{inner: inner, steps: steps}
}

type scripted struct {
	inner core.Behavior
	steps []Step
}

func (s *scripted) Init(e core.Env) {
	for _, st := range s.steps {
		st := st
		e.At(st.At, func() { st.Do(e) })
	}
	s.inner.Init(e)
}

func (s *scripted) OnContract(e core.Env, arcID int, c chain.Contract) {
	s.inner.OnContract(e, arcID, c)
}
func (s *scripted) OnUnlock(e core.Env, arcID, lockIdx int, key hashkey.Hashkey) {
	s.inner.OnUnlock(e, arcID, lockIdx, key)
}
func (s *scripted) OnRedeem(e core.Env, arcID int, secret hashkey.Secret) {
	s.inner.OnRedeem(e, arcID, secret)
}
func (s *scripted) OnBroadcast(e core.Env, lockIdx int, key hashkey.Hashkey) {
	s.inner.OnBroadcast(e, lockIdx, key)
}
func (s *scripted) OnSettled(e core.Env, arcID int, claimed bool) {
	s.inner.OnSettled(e, arcID, claimed)
}
