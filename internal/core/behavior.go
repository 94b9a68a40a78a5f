package core

import (
	"slices"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Env is the world as one party sees it: its identity and keys, clock,
// scheduled wake-ups, and chain actions. Actions execute immediately (the
// party's transaction lands and is timestamped now); other parties observe
// the change Δ later. Adversary behaviors interpose on Env to drop, delay,
// or corrupt actions.
type Env interface {
	// Now returns the current virtual time.
	Now() vtime.Ticks
	// Spec returns the public swap plan.
	Spec() *Spec
	// Vertex returns the party's vertex in the swap digraph.
	Vertex() digraph.Vertex
	// Party returns the party's chain identity.
	Party() chain.PartyID
	// Signer returns the party's signing identity.
	Signer() *hashkey.Signer
	// Secret returns the party's secret and hashlock index when it is a
	// leader.
	Secret() (hashkey.Secret, int, bool)
	// Contract reads the current contract on an arc's chain, if published.
	Contract(arcID int) (chain.Contract, bool)
	// Resolved reports whether an arc's contract has settled and how.
	Resolved(arcID int) (settled, claimed bool)

	// Publish builds and publishes the canonical contract for an arc the
	// party is the head of.
	Publish(arcID int) error
	// PublishSwapParams publishes a Swap contract with explicit,
	// possibly non-canonical parameters (deviation hook).
	PublishSwapParams(p htlc.SwapParams) error
	// PublishHTLCParams is PublishSwapParams for a classic HTLC.
	PublishHTLCParams(p htlc.HTLCParams) error
	// Unlock presents a hashkey for one hashlock of an arc's Swap contract.
	Unlock(arcID, lockIdx int, key hashkey.Hashkey) error
	// Redeem presents the secret to an arc's classic HTLC.
	Redeem(arcID int, secret hashkey.Secret) error
	// Claim takes the asset of a fully unlocked Swap contract.
	Claim(arcID int) error
	// Refund reclaims the asset of an expired contract.
	Refund(arcID int) error
	// Broadcast publishes a leader hashkey on the shared broadcast chain
	// (Section 4.5 optimization; no-op unless the spec enables it).
	Broadcast(lockIdx int, key hashkey.Hashkey)

	// At schedules a.Ring(arg) at tick t (the party's own alarm).
	At(t vtime.Ticks, a Alarm, arg int)
	// Abandon halts protocol participation: no further events are
	// delivered to the behavior. Scheduled alarms still fire, so the
	// party keeps refunding its own contracts.
	Abandon(reason string)
	// Note records a trace event attributed to this party.
	Note(kind trace.Kind, arcID, lockIdx int, detail string)
}

// Behavior is a party's protocol logic, driven by chain observations. The
// runtime (package conc) delivers events for incident arcs only, within Δ
// of the underlying action. Conforming implements the paper's protocol; the adversary
// package builds deviations by wrapping behaviors and environments.
type Behavior interface {
	// Init runs at the protocol start time T.
	Init(e Env)
	// OnContract fires when a contract appears on an incident arc.
	OnContract(e Env, arcID int, c chain.Contract)
	// OnUnlock fires when a hashlock opens on an incident arc's Swap
	// contract, carrying the (public) hashkey that opened it.
	OnUnlock(e Env, arcID, lockIdx int, key hashkey.Hashkey)
	// OnRedeem fires when an incident arc's classic HTLC is redeemed,
	// revealing the secret.
	OnRedeem(e Env, arcID int, secret hashkey.Secret)
	// OnBroadcast fires when a leader hashkey appears on the broadcast
	// chain (delivered to every party).
	OnBroadcast(e Env, lockIdx int, key hashkey.Hashkey)
	// OnSettled fires when an incident arc's contract settles.
	OnSettled(e Env, arcID int, claimed bool)
}

// Alarm is a party's scheduled wake-up (Env.At).
type Alarm interface {
	// Ring runs at the alarm's tick with the argument it was set with.
	Ring(arg int)
}

// AlarmFunc adapts a plain function to an Alarm; it ignores the argument.
type AlarmFunc func()

// Ring implements Alarm.
func (f AlarmFunc) Ring(int) { f() }

// NopBehavior ignores every event. Embed it to implement only the events a
// behavior cares about.
type NopBehavior struct{}

// Init implements Behavior.
func (NopBehavior) Init(Env) {}

// OnContract implements Behavior.
func (NopBehavior) OnContract(Env, int, chain.Contract) {}

// OnUnlock implements Behavior.
func (NopBehavior) OnUnlock(Env, int, int, hashkey.Hashkey) {}

// OnRedeem implements Behavior.
func (NopBehavior) OnRedeem(Env, int, hashkey.Secret) {}

// OnBroadcast implements Behavior.
func (NopBehavior) OnBroadcast(Env, int, hashkey.Hashkey) {}

// OnSettled implements Behavior.
func (NopBehavior) OnSettled(Env, int, bool) {}

// Conforming is the paper's protocol for the general (multi-leader,
// hashkey) variant, for both leader and follower roles:
//
// Phase One — a leader publishes contracts on its leaving arcs at T and
// waits; a follower publishes on its leaving arcs once verified contracts
// sit on all its entering arcs. A bad contract on an entering arc makes
// the party abandon.
//
// Phase Two — once a leader's entering arcs all carry contracts, it
// presents its degenerate hashkey on each of them (and broadcasts it when
// the optimization is on). Whenever a party first sees hashlock i opened
// on one of its leaving arcs, it extends the hashkey with its own
// signature and presents it on all its entering arcs. A party claims an
// entering arc as soon as every hashlock on it is open, and refunds its
// leaving arcs when a lock is dead.
//
// The zero value is ready to use, and a swap of up to four parties keeps
// its per-arc and per-lock state inside the behavior.
type Conforming struct {
	entering []int
	leaving  []int
	arcs     []generalArc // by arc ID
	arcBuf   [12]generalArc
	// keys holds, per hashlock index, the extended hashkey this party
	// presents on its entering arcs; a non-nil path means the lock was
	// handled.
	keys   []hashkey.Hashkey
	keyBuf [3]hashkey.Hashkey
	// published tracks Phase One completion for this party's leaving arcs.
	published bool
	// revealed tracks the leader's Phase Two start.
	revealed bool
	refund   refunder
}

// generalArc is what Conforming tracks per entering arc: a verified
// contract seen on it, and the arc claimed.
type generalArc struct {
	seen, claimed bool
}

// ConformingFor returns a fresh conforming behavior for the protocol the
// spec runs: Conforming on Swap contracts, ConformingHTLC on classic HTLCs.
func ConformingFor(spec *Spec) Behavior {
	if spec.Kind == KindGeneral {
		return NewConforming()
	}
	return NewConformingHTLC()
}

// NewConforming returns a fresh conforming behavior.
func NewConforming() *Conforming { return &Conforming{} }

// Init implements Behavior.
func (b *Conforming) Init(e Env) {
	spec := e.Spec()
	// Adjacency lists ascend by arc ID, which is the order every loop
	// below acts in.
	b.entering = spec.Entering(e.Vertex())
	b.leaving = spec.Leaving(e.Vertex())
	b.arcs = cut(b.arcBuf[:], spec.D.NumArcs())
	b.keys = cut(b.keyBuf[:], len(spec.Locks))

	scheduleRefundAlarms(e, b.leaving, &b.refund)

	if spec.IsLeader(e.Vertex()) || len(b.entering) == 0 {
		// Leaders open Phase One. (A follower without entering arcs can
		// only occur in unsafe digraphs; its wait is vacuous.)
		b.publishLeaving(e)
	}
	b.maybeStartPhaseTwo(e)
}

// scheduleRefundAlarms arms r with one alarm per distinct deadline of
// each leaving arc, one tick past the inclusive unlock deadline. The alarm
// refunds when the contract is refundable; alarms run even after the
// party abandons, because reclaiming its own escrow is pure self-interest.
func scheduleRefundAlarms(e Env, leaving []int, r *refunder) {
	r.e = e
	spec := e.Spec()
	for _, arc := range leaving {
		switch {
		case spec.Kind != KindGeneral:
			e.At(spec.HTLCTimeout(arc), r, arc)
		case len(spec.Leaders) == 1:
			e.At(spec.timelocksShared(arc)[0].Add(1), r, arc)
		default:
			// A copy, sorted in place; a swap's few leaders fit the stack.
			var buf [8]vtime.Ticks
			deadlines := append(buf[:0], spec.timelocksShared(arc)...)
			slices.Sort(deadlines)
			for _, tl := range slices.Compact(deadlines) {
				e.At(tl.Add(1), r, arc)
			}
		}
	}
}

// refunder is a behavior's refund alarm: Ring(arc) refunds arc. It keeps
// the Env the behavior was started with, so the refund goes through
// whatever that environment interposes, and one refunder serves every
// alarm of its party without an allocation per alarm.
type refunder struct{ e Env }

// Ring implements Alarm.
func (r *refunder) Ring(arc int) { tryRefund(r.e, arc) }

// tryRefund refunds arc if its contract exists, is unsettled, and is
// refundable now.
func tryRefund(e Env, arcID int) {
	if settled, _ := e.Resolved(arcID); settled {
		return
	}
	c, ok := e.Contract(arcID)
	if !ok {
		return
	}
	refundable := false
	switch ct := c.(type) {
	case *htlc.Swap:
		refundable = ct.Refundable(e.Now())
	case *htlc.HTLC:
		refundable = !e.Now().Before(ct.Params().Timeout)
	}
	if refundable {
		_ = e.Refund(arcID)
	}
}

func (b *Conforming) publishLeaving(e Env) {
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

// maybeStartPhaseTwo begins secret release for leaders whose entering arcs
// all carry verified contracts.
func (b *Conforming) maybeStartPhaseTwo(e Env) {
	if b.revealed {
		return
	}
	secret, idx, isLeader := e.Secret()
	if !isLeader || !b.allEnteringSeen() {
		return
	}
	b.revealed = true
	key := hashkey.New(secret, e.Signer())
	// The degenerate key is valid by construction — it is the leader's own
	// signature over its own secret. Seeding it spares every contract the
	// one full-chain walk that used to be the cache's only miss.
	if spec := e.Spec(); spec.Cache != nil {
		_ = key.SeedVerified(spec.Locks[idx], spec.Leaders[idx], spec.Keys, spec.Cache)
	}
	b.keys[idx] = key
	e.Note(trace.KindSecretRevealed, -1, idx, "leader releases secret")
	if e.Spec().Broadcast {
		e.Broadcast(idx, key)
	}
	for _, arc := range b.entering {
		if err := e.Unlock(arc, idx, key); err != nil {
			e.Note(trace.KindUnlockFailed, arc, idx, err.Error())
		}
	}
	b.claimWhereComplete(e)
}

func (b *Conforming) allEnteringSeen() bool {
	for _, arc := range b.entering {
		if !b.arcs[arc].seen {
			return false
		}
	}
	return true
}

// OnContract implements Behavior: verify, record, and advance Phase One.
func (b *Conforming) OnContract(e Env, arcID int, c chain.Contract) {
	isEntering := containsInt(b.entering, arcID)
	if !isEntering {
		return // our own leaving-arc publications need no verification
	}
	sw, ok := c.(*htlc.Swap)
	if ok {
		want := e.Spec().contractParams(arcID)
		ok = sw.Matches(&want)
	}
	if !ok {
		e.Note(trace.KindContractRejected, arcID, -1, "contract does not match the swap plan")
		e.Abandon("incorrect contract on entering arc")
		return
	}
	b.arcs[arcID].seen = true
	if b.allEnteringSeen() {
		if !e.Spec().IsLeader(e.Vertex()) {
			b.publishLeaving(e)
		}
		b.maybeStartPhaseTwo(e)
	}
	// Phase Two can race Phase One on other parts of the digraph: keys
	// learned before this contract appeared must be presented now.
	b.presentKeys(e, arcID, sw)
	b.claimWhereComplete(e)
}

// presentKeys unlocks every known hashlock on one entering arc's contract.
func (b *Conforming) presentKeys(e Env, arcID int, sw *htlc.Swap) {
	for i, key := range b.keys {
		if key.Path == nil {
			continue
		}
		if _, open := sw.UnlockTime(i); open {
			continue
		}
		if err := e.Unlock(arcID, i, key); err != nil {
			e.Note(trace.KindUnlockFailed, arcID, i, err.Error())
		}
	}
}

// OnUnlock implements Behavior: propagate secrets backwards (Phase Two)
// and claim completed entering arcs.
func (b *Conforming) OnUnlock(e Env, arcID, lockIdx int, key hashkey.Hashkey) {
	if containsInt(b.leaving, arcID) {
		b.learnKey(e, lockIdx, key)
	}
	b.claimWhereComplete(e)
}

// learnKey handles the first observation of hashlock lockIdx opening:
// extend the hashkey and present it on every entering arc that already
// carries a contract. Arcs whose contracts are still propagating are
// covered by the retry in OnContract.
func (b *Conforming) learnKey(e Env, lockIdx int, key hashkey.Hashkey) {
	if b.keys[lockIdx].Path != nil {
		return
	}
	if key.Path.Contains(e.Vertex()) {
		// We already signed this chain once; Lemma 4.8's second case.
		return
	}
	mine := key.Extend(e.Signer())
	// The extension is valid by construction — our fresh signature over a
	// chain that was just verified (by a contract on-chain, or by
	// OnBroadcast for the virtual length-1 broadcast path). Seeding it
	// makes every contract that verifies our re-presentation a pure cache
	// hit instead of a one-signature fast path.
	if spec := e.Spec(); spec.Cache != nil {
		_ = mine.SeedVerified(spec.Locks[lockIdx], spec.Leaders[lockIdx], spec.Keys, spec.Cache)
	}
	b.keys[lockIdx] = mine
	for _, arc := range b.entering {
		if _, published := e.Contract(arc); !published {
			continue
		}
		if err := e.Unlock(arc, lockIdx, mine); err != nil {
			e.Note(trace.KindUnlockFailed, arc, lockIdx, err.Error())
		}
	}
}

// OnRedeem implements Behavior; the general protocol uses Swap contracts,
// so classic redeems never reach it.
func (b *Conforming) OnRedeem(Env, int, hashkey.Secret) {}

// OnBroadcast implements Behavior: the Section 4.5 short-circuit. The
// party verifies the leader's broadcast hashkey and treats it as a learned
// secret with the virtual length-1 path.
func (b *Conforming) OnBroadcast(e Env, lockIdx int, key hashkey.Hashkey) {
	spec := e.Spec()
	if !spec.Broadcast || lockIdx < 0 || lockIdx >= len(spec.Locks) {
		return
	}
	if b.keys[lockIdx].Path != nil {
		return
	}
	if key.Leader() == e.Vertex() {
		return // our own broadcast
	}
	if err := key.VerifyCryptoExtended(spec.Locks[lockIdx], spec.Leaders[lockIdx], spec.Keys, spec.Cache); err != nil {
		e.Note(trace.KindUnlockFailed, -1, lockIdx, "bad broadcast: "+err.Error())
		return
	}
	b.learnKey(e, lockIdx, key)
	b.claimWhereComplete(e)
}

// OnSettled implements Behavior.
func (b *Conforming) OnSettled(e Env, arcID int, claimed bool) {
	if claimed {
		b.arcs[arcID].claimed = true
	}
}

// claimWhereComplete claims every entering arc whose contract is fully
// unlocked. Our own unlocks take effect immediately, so the check runs
// after every action that might have completed a contract.
func (b *Conforming) claimWhereComplete(e Env) {
	for _, arc := range b.entering {
		if b.arcs[arc].claimed {
			continue
		}
		c, ok := e.Contract(arc)
		if !ok {
			continue
		}
		sw, ok := c.(*htlc.Swap)
		if !ok || !sw.AllUnlocked() {
			continue
		}
		if settled, _ := e.Resolved(arc); settled {
			b.arcs[arc].claimed = true
			continue
		}
		if err := e.Claim(arc); err == nil {
			b.arcs[arc].claimed = true
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
