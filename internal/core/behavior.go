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

	// At schedules fn at tick t (the party's own alarm).
	At(t vtime.Ticks, fn func())
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
type Conforming struct {
	entering []int
	leaving  []int
	seen     map[int]bool
	// published tracks Phase One completion for this party's leaving arcs.
	published bool
	// revealed tracks the leader's Phase Two start.
	revealed bool
	// keys holds, per hashlock index, the extended hashkey this party
	// presents on its entering arcs. Presence means the lock was handled.
	keys map[int]hashkey.Hashkey
	// claimed tracks entering arcs already claimed.
	claimed map[int]bool
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
func NewConforming() *Conforming {
	return &Conforming{
		seen:    make(map[int]bool),
		keys:    make(map[int]hashkey.Hashkey),
		claimed: make(map[int]bool),
	}
}

// Init implements Behavior.
func (b *Conforming) Init(e Env) {
	spec := e.Spec()
	// Adjacency lists ascend by arc ID, which is the order every loop
	// below acts in.
	b.entering = spec.Entering(e.Vertex())
	b.leaving = spec.Leaving(e.Vertex())

	scheduleRefundAlarms(e, b.leaving)

	if spec.IsLeader(e.Vertex()) || len(b.entering) == 0 {
		// Leaders open Phase One. (A follower without entering arcs can
		// only occur in unsafe digraphs; its wait is vacuous.)
		b.publishLeaving(e)
	}
	b.maybeStartPhaseTwo(e)
}

// scheduleRefundAlarms arms one alarm per distinct deadline of each
// leaving arc, one tick past the inclusive unlock deadline. The alarm
// refunds when the contract is refundable; alarms run even after the
// party abandons, because reclaiming its own escrow is pure self-interest.
func scheduleRefundAlarms(e Env, leaving []int) {
	spec := e.Spec()
	for _, arc := range leaving {
		arc := arc
		switch {
		case spec.Kind != KindGeneral:
			e.At(spec.HTLCTimeout(arc), func() { tryRefund(e, arc) })
		case len(spec.Leaders) == 1:
			e.At(spec.timelocksShared(arc)[0].Add(1), func() { tryRefund(e, arc) })
		default:
			deadlines := spec.Timelocks(arc) // a copy: sorted in place
			slices.Sort(deadlines)
			for _, tl := range slices.Compact(deadlines) {
				e.At(tl.Add(1), func() { tryRefund(e, arc) })
			}
		}
	}
}

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
		if !b.seen[arc] {
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
	if !ok || !swapParamsMatch(sw.Params(), e.Spec().ContractParams(arcID)) {
		e.Note(trace.KindContractRejected, arcID, -1, "contract does not match the swap plan")
		e.Abandon("incorrect contract on entering arc")
		return
	}
	b.seen[arcID] = true
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
	open := sw.Unlocked()
	for i := 0; i < len(e.Spec().Locks); i++ {
		key, ok := b.keys[i]
		if !ok || open[i] {
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
	if _, done := b.keys[lockIdx]; done {
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
	if _, done := b.keys[lockIdx]; done {
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
		b.claimed[arcID] = true
	}
}

// claimWhereComplete claims every entering arc whose contract is fully
// unlocked. Our own unlocks take effect immediately, so the check runs
// after every action that might have completed a contract.
func (b *Conforming) claimWhereComplete(e Env) {
	for _, arc := range b.entering {
		if b.claimed[arc] {
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
			b.claimed[arc] = true
			continue
		}
		if err := e.Claim(arc); err == nil {
			b.claimed[arc] = true
		}
	}
}

// swapParamsMatch compares a published contract's parameters with the
// canonical ones derived from the spec.
func swapParamsMatch(got, want htlc.SwapParams) bool {
	if got.ID != want.ID || got.ArcID != want.ArcID ||
		got.Party != want.Party || got.PartyV != want.PartyV ||
		got.Counter != want.Counter || got.CounterV != want.CounterV ||
		got.Asset != want.Asset || got.Start != want.Start ||
		got.Delta != want.Delta || got.DiamBound != want.DiamBound ||
		got.Broadcast != want.Broadcast {
		return false
	}
	if len(got.Leaders) != len(want.Leaders) || len(got.Locks) != len(want.Locks) ||
		len(got.Timelocks) != len(want.Timelocks) {
		return false
	}
	for i := range got.Leaders {
		if got.Leaders[i] != want.Leaders[i] || got.Locks[i] != want.Locks[i] ||
			got.Timelocks[i] != want.Timelocks[i] {
			return false
		}
	}
	if got.Digraph == nil || !digraph.StructuralEqual(got.Digraph, want.Digraph) {
		return false
	}
	for i := 0; i < want.Digraph.NumArcs(); i++ {
		if got.Digraph.Arc(i) != want.Digraph.Arc(i) {
			return false
		}
	}
	if len(got.Directory) != len(want.Directory) {
		return false
	}
	for v, pk := range want.Directory {
		gpk, ok := got.Directory[v]
		if !ok || len(gpk) != len(pk) {
			return false
		}
		for i := range pk {
			if gpk[i] != pk[i] {
				return false
			}
		}
	}
	return true
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
