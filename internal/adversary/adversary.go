// Package adversary implements deviating parties for the swap protocol's
// game-theoretic experiments: crash faults, withheld publications, silent
// and premature leaders, last-moment reveals, out-of-order publications,
// scripted coalitions, and a randomized deviation fuzzer.
//
// Deviations compose from two primitives:
//
//   - an Env filter that drops, delays, or rewrites the actions an
//     otherwise-conforming behavior attempts (a deviator whose node
//     silently withholds transactions);
//   - behavior wrappers that change when and whether protocol events are
//     acted upon (crash faults, scripted extra actions).
//
// Theorem 4.9 quantifies over arbitrary deviations by coalitions; the
// fuzzer approximates that space with seeded random combinations of the
// primitives plus coalition secret-sharing, and the named strategies cover
// every attack the paper discusses explicitly.
package adversary

import (
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Filter selectively suppresses or delays a party's chain actions. A nil
// predicate means "never". Dropped actions report success to the inner
// behavior — the deviator's protocol engine believes it acted. Unlock (and
// Claim) exist only on Swap contracts and Redeem only on classic HTLCs, so
// a deviation that should hold under either protocol sets both twins.
type Filter struct {
	DropPublish   func(arcID int) bool
	DropUnlock    func(arcID, lockIdx int) bool
	DropRedeem    func(arcID int) bool
	DropClaim     func(arcID int) bool
	DropRefund    func(arcID int) bool
	DropBroadcast func(lockIdx int) bool
	// DelayUnlock moves an unlock to a later tick (still subject to the
	// contract's deadline when it finally lands).
	DelayUnlock func(arcID, lockIdx int) (vtime.Ticks, bool)
	// DelayRedeem moves a classic-HTLC redeem to a later tick.
	DelayRedeem func(arcID int) (vtime.Ticks, bool)
}

// filteredEnv applies a Filter in front of a real Env.
type filteredEnv struct {
	core.Env
	f Filter
}

func (e *filteredEnv) Publish(arcID int) error {
	if e.f.DropPublish != nil && e.f.DropPublish(arcID) {
		e.Note(trace.KindDeviation, arcID, -1, "withheld contract publication")
		return nil
	}
	return e.Env.Publish(arcID)
}

func (e *filteredEnv) Unlock(arcID, lockIdx int, key hashkey.Hashkey) error {
	if e.f.DropUnlock != nil && e.f.DropUnlock(arcID, lockIdx) {
		e.Note(trace.KindDeviation, arcID, lockIdx, "withheld unlock")
		return nil
	}
	if e.f.DelayUnlock != nil {
		if at, ok := e.f.DelayUnlock(arcID, lockIdx); ok && at.After(e.Now()) {
			e.Note(trace.KindDeviation, arcID, lockIdx, "delayed unlock")
			e.Env.At(at, core.AlarmFunc(func() { _ = e.Env.Unlock(arcID, lockIdx, key) }), 0)
			return nil
		}
	}
	return e.Env.Unlock(arcID, lockIdx, key)
}

func (e *filteredEnv) Redeem(arcID int, secret hashkey.Secret) error {
	if e.f.DropRedeem != nil && e.f.DropRedeem(arcID) {
		e.Note(trace.KindDeviation, arcID, -1, "withheld redeem")
		return nil
	}
	if e.f.DelayRedeem != nil {
		if at, ok := e.f.DelayRedeem(arcID); ok && at.After(e.Now()) {
			e.Note(trace.KindDeviation, arcID, -1, "delayed redeem")
			e.Env.At(at, core.AlarmFunc(func() { _ = e.Env.Redeem(arcID, secret) }), 0)
			return nil
		}
	}
	return e.Env.Redeem(arcID, secret)
}

func (e *filteredEnv) Claim(arcID int) error {
	if e.f.DropClaim != nil && e.f.DropClaim(arcID) {
		e.Note(trace.KindDeviation, arcID, -1, "withheld claim")
		return nil
	}
	return e.Env.Claim(arcID)
}

func (e *filteredEnv) Refund(arcID int) error {
	if e.f.DropRefund != nil && e.f.DropRefund(arcID) {
		e.Note(trace.KindDeviation, arcID, -1, "withheld refund")
		return nil
	}
	return e.Env.Refund(arcID)
}

func (e *filteredEnv) Broadcast(lockIdx int, key hashkey.Hashkey) {
	if e.f.DropBroadcast != nil && e.f.DropBroadcast(lockIdx) {
		e.Note(trace.KindDeviation, -1, lockIdx, "withheld broadcast")
		return
	}
	e.Env.Broadcast(lockIdx, key)
}

// Conforming is the conforming protocol of whichever variant the swap it
// joins runs: core.ConformingFor, resolved at Init — the first callback a
// behavior receives — when the spec is in hand. Every named strategy
// deviates from it, so one strategy is the same deviation on Swap contracts
// and on the single-leader variant's classic HTLCs.
func Conforming() core.Behavior { return &conforming{} }

type conforming struct{ core.Behavior }

func (c *conforming) Init(e core.Env) {
	c.Behavior = core.ConformingFor(e.Spec())
	c.Behavior.Init(e)
}

// Filtered wraps a behavior so all its actions pass through the filter.
func Filtered(inner core.Behavior, f Filter) core.Behavior {
	return &wrapped{inner: inner, wrap: func(e core.Env) core.Env {
		return &filteredEnv{Env: e, f: f}
	}}
}

// wrapped routes every behavior callback through an Env transformation.
type wrapped struct {
	inner core.Behavior
	wrap  func(core.Env) core.Env
}

func (w *wrapped) Init(e core.Env) { w.inner.Init(w.wrap(e)) }

func (w *wrapped) OnContract(e core.Env, arcID int, c chain.Contract) {
	w.inner.OnContract(w.wrap(e), arcID, c)
}

func (w *wrapped) OnUnlock(e core.Env, arcID, lockIdx int, key hashkey.Hashkey) {
	w.inner.OnUnlock(w.wrap(e), arcID, lockIdx, key)
}

func (w *wrapped) OnRedeem(e core.Env, arcID int, secret hashkey.Secret) {
	w.inner.OnRedeem(w.wrap(e), arcID, secret)
}

func (w *wrapped) OnBroadcast(e core.Env, lockIdx int, key hashkey.Hashkey) {
	w.inner.OnBroadcast(w.wrap(e), lockIdx, key)
}

func (w *wrapped) OnSettled(e core.Env, arcID int, claimed bool) {
	w.inner.OnSettled(w.wrap(e), arcID, claimed)
}

// HaltAt wraps a behavior as a crash fault: from tick t on, no events are
// processed and no scheduled alarm acts — the party is gone, including its
// refunds.
func HaltAt(inner core.Behavior, t vtime.Ticks) core.Behavior {
	return &halter{inner: inner, at: t}
}

type halter struct {
	inner core.Behavior
	at    vtime.Ticks
}

func (h *halter) dead(e core.Env) bool { return !e.Now().Before(h.at) }

func (h *halter) wrap(e core.Env) core.Env { return &haltEnv{Env: e, h: h} }

func (h *halter) Init(e core.Env) {
	if h.dead(e) {
		return
	}
	h.inner.Init(h.wrap(e))
}

func (h *halter) OnContract(e core.Env, arcID int, c chain.Contract) {
	if h.dead(e) {
		return
	}
	h.inner.OnContract(h.wrap(e), arcID, c)
}

func (h *halter) OnUnlock(e core.Env, arcID, lockIdx int, key hashkey.Hashkey) {
	if h.dead(e) {
		return
	}
	h.inner.OnUnlock(h.wrap(e), arcID, lockIdx, key)
}

func (h *halter) OnRedeem(e core.Env, arcID int, secret hashkey.Secret) {
	if h.dead(e) {
		return
	}
	h.inner.OnRedeem(h.wrap(e), arcID, secret)
}

func (h *halter) OnBroadcast(e core.Env, lockIdx int, key hashkey.Hashkey) {
	if h.dead(e) {
		return
	}
	h.inner.OnBroadcast(h.wrap(e), lockIdx, key)
}

func (h *halter) OnSettled(e core.Env, arcID int, claimed bool) {
	if h.dead(e) {
		return
	}
	h.inner.OnSettled(h.wrap(e), arcID, claimed)
}

// haltEnv guards scheduled alarms: a crashed party's pending alarms do
// nothing.
type haltEnv struct {
	core.Env
	h *halter
}

func (e *haltEnv) At(t vtime.Ticks, a core.Alarm, arg int) {
	e.Env.At(t, core.AlarmFunc(func() {
		if !e.Now().Before(e.h.at) {
			return
		}
		a.Ring(arg)
	}), 0)
}
