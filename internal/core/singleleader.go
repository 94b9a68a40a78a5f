package core

import (
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/trace"
)

// ConformingHTLC is the paper's protocol for the single-leader special
// case (Section 4.6) and for the uniform-timeout baseline: classic HTLCs
// with static timeouts replace hashkeys and signatures.
//
// Phase One is identical to the general protocol. In Phase Two the leader
// redeems its entering arcs with the bare secret (which reveals it on
// those chains); every party that sees one of its leaving arcs redeemed
// learns the secret and redeems its own entering arcs. Redeeming claims
// immediately, so there is no separate claim step.
type ConformingHTLC struct {
	entering  []int
	leaving   []int
	arcs      []htlcArc // by arc ID
	published bool
	revealed  bool
	secret    hashkey.Secret
	haveSec   bool
}

// htlcArc is what the behavior tracks per entering arc.
type htlcArc struct {
	seen, redeemed bool
}

// NewConformingHTLC returns a fresh conforming single-leader behavior.
func NewConformingHTLC() *ConformingHTLC { return &ConformingHTLC{} }

// Init implements Behavior.
func (b *ConformingHTLC) Init(e Env) {
	spec := e.Spec()
	// Adjacency lists ascend by arc ID, which is the order every loop
	// below acts in.
	b.entering = spec.Entering(e.Vertex())
	b.leaving = spec.Leaving(e.Vertex())
	b.arcs = make([]htlcArc, spec.D.NumArcs())

	scheduleRefundAlarms(e, b.leaving)

	if sec, _, ok := e.Secret(); ok {
		b.secret, b.haveSec = sec, true
	}
	if b.haveSec || len(b.entering) == 0 {
		b.publishLeaving(e)
	}
	b.maybeReveal(e)
}

func (b *ConformingHTLC) publishLeaving(e Env) {
	if b.published {
		return
	}
	b.published = true
	for _, arc := range b.leaving {
		if err := e.Publish(arc); err != nil {
			e.Note(trace.KindAbandoned, arc, -1, "publish failed: "+err.Error())
			e.Abandon("publish failed")
			return
		}
	}
}

func (b *ConformingHTLC) allEnteringSeen() bool {
	for _, arc := range b.entering {
		if !b.arcs[arc].seen {
			return false
		}
	}
	return true
}

// maybeReveal starts Phase Two for the leader: redeem every entering arc,
// which reveals the secret on those chains.
func (b *ConformingHTLC) maybeReveal(e Env) {
	if b.revealed || !b.haveSec || !b.allEnteringSeen() {
		return
	}
	b.revealed = true
	e.Note(trace.KindSecretRevealed, -1, 0, "leader redeems entering arcs")
	b.redeemEntering(e)
}

func (b *ConformingHTLC) redeemEntering(e Env) {
	for _, arc := range b.entering {
		if b.arcs[arc].redeemed {
			continue
		}
		if settled, _ := e.Resolved(arc); settled {
			b.arcs[arc].redeemed = true
			continue
		}
		if _, published := e.Contract(arc); !published {
			// Contract still propagating; OnContract retries.
			continue
		}
		if err := e.Redeem(arc, b.secret); err != nil {
			e.Note(trace.KindUnlockFailed, arc, -1, err.Error())
		} else {
			b.arcs[arc].redeemed = true
		}
	}
}

// OnContract implements Behavior: verify entering contracts against the
// plan, advance Phase One.
func (b *ConformingHTLC) OnContract(e Env, arcID int, c chain.Contract) {
	if e.Spec().D.Arc(arcID).Tail != e.Vertex() {
		return // our own leaving-arc publications need no verification
	}
	h, ok := c.(*htlc.HTLC)
	if !ok || h.Params() != e.Spec().HTLCParams(arcID) {
		e.Note(trace.KindContractRejected, arcID, -1, "contract does not match the swap plan")
		e.Abandon("incorrect contract on entering arc")
		return
	}
	b.arcs[arcID].seen = true
	if b.allEnteringSeen() {
		if !b.haveSec {
			b.publishLeaving(e)
		}
		b.maybeReveal(e)
	}
	if b.haveSec && b.revealed {
		b.redeemEntering(e)
	} else if b.haveSec && !e.Spec().IsLeader(e.Vertex()) {
		// A follower that already learned the secret redeems newly
		// published entering contracts immediately.
		b.redeemEntering(e)
	}
}

// OnUnlock implements Behavior; classic HTLCs never emit unlock events.
func (b *ConformingHTLC) OnUnlock(Env, int, int, hashkey.Hashkey) {}

// OnRedeem implements Behavior: learn the secret from a redeemed leaving
// arc and redeem the entering arcs with it.
func (b *ConformingHTLC) OnRedeem(e Env, arcID int, secret hashkey.Secret) {
	if e.Spec().D.Arc(arcID).Head != e.Vertex() {
		return
	}
	if !secret.Matches(e.Spec().Locks[0]) {
		return
	}
	if !b.haveSec {
		b.secret, b.haveSec = secret, true
	}
	b.redeemEntering(e)
}

// OnBroadcast implements Behavior; the HTLC variants do not broadcast.
func (b *ConformingHTLC) OnBroadcast(Env, int, hashkey.Hashkey) {}

// OnSettled implements Behavior.
func (b *ConformingHTLC) OnSettled(e Env, arcID int, claimed bool) {
	if claimed && e.Spec().D.Arc(arcID).Tail == e.Vertex() {
		b.arcs[arcID].redeemed = true
	}
}
