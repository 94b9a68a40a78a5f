package core

import (
	"fmt"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Options configures a protocol run.
type Options struct {
	// Horizon overrides the quiescence deadline (0 = spec.Horizon()).
	Horizon vtime.Ticks
}

// BroadcastMsg is the payload leaders publish on the shared broadcast
// chain under the Section 4.5 optimization: their degenerate hashkey, so
// followers can extend it with a verifiable signature chain. Tag carries
// the publishing swap's contract namespace so concurrent swaps sharing
// the broadcast chain can ignore each other's secrets.
type BroadcastMsg struct {
	Tag       string
	LockIndex int
	Key       hashkey.Hashkey
}

// Result reports a finished run.
type Result struct {
	Spec *Spec
	// Triggered reports, per arc, whether the transfer happened: the
	// contract was claimed, or is fully unlocked and therefore claimable
	// (a bearer right — see DESIGN.md).
	Triggered map[int]bool
	// Report classifies every party's payoff.
	Report *outcome.Report
	// Conforming lists the vertexes that ran the default conforming
	// behavior (never overridden with SetBehavior).
	Conforming []digraph.Vertex
	Log        *trace.Log
	Counters   metrics.Counters
	Timing     metrics.Timing
	// StorageBytes is the total stored across all chains (Theorem 4.10).
	StorageBytes int
	// Registry exposes final chain state for invariant checks.
	Registry *chain.Registry
}

// Runner executes one swap under the discrete-event model: actions land
// on chains instantly; every observer (party) is notified exactly Δ later,
// the paper's worst-case publish-and-detect latency. It runs on a serial
// sched.Virtual of its own, so the whole run is one thread of control in
// (tick, scheduling) order and a pure function of the setup. NewRunner
// starts that scheduler's dispatcher and Run stops it: run every Runner
// you build.
type Runner struct {
	setup     *Setup
	spec      *Spec
	opts      Options
	sched     *sched.Virtual
	reg       *chain.Registry
	log       *trace.Log
	counters  metrics.Counters
	behaviors []Behavior
	envs      []*partyEnv
	abandoned []bool
	custom    []bool // behaviors replaced via SetBehavior
	resolved  map[int]bool
	resClaim  map[int]bool
	lastPub   vtime.Ticks
	lastDone  vtime.Ticks
	ran       bool
}

// NewRunner prepares a run of the given setup. Every party defaults to the
// conforming behavior for the spec's protocol variant.
func NewRunner(setup *Setup, opts Options) *Runner {
	n := setup.Spec.D.NumVertices()
	r := &Runner{
		setup:     setup,
		spec:      setup.Spec,
		opts:      opts,
		sched:     sched.NewVirtual(1),
		log:       &trace.Log{},
		behaviors: make([]Behavior, n),
		envs:      make([]*partyEnv, n),
		abandoned: make([]bool, n),
		custom:    make([]bool, n),
		resolved:  make(map[int]bool),
		resClaim:  make(map[int]bool),
	}
	r.reg = chain.NewRegistry(r.sched)
	for v := 0; v < n; v++ {
		r.behaviors[v] = ConformingFor(setup.Spec)
		r.envs[v] = &partyEnv{r: r, v: digraph.Vertex(v)}
	}
	return r
}

// SetBehavior replaces a party's behavior (adversaries, probes). The
// vertex no longer counts as conforming in the result.
func (r *Runner) SetBehavior(v digraph.Vertex, b Behavior) {
	r.behaviors[v] = b
	r.custom[v] = true
}

// Log exposes the live trace log (also available on the Result).
func (r *Runner) Log() *trace.Log { return r.log }

// Registry exposes the chain registry.
func (r *Runner) Registry() *chain.Registry { return r.reg }

// Run executes the protocol to quiescence and reports the outcome. A
// runner is single-use.
func (r *Runner) Run() (*Result, error) {
	if r.ran {
		return nil, fmt.Errorf("core: runner is single-use")
	}
	r.ran = true
	spec := r.spec
	// Stops the dispatcher on the error path, hold or no hold; RunUntil
	// already has on the other.
	defer r.sched.Close()
	// Set-up happens on this goroutine: hold the clock so no party starts
	// before every party's start is queued.
	release := r.sched.Hold()

	// Mint every arc's asset, owned by the arc's head party.
	for id := 0; id < spec.D.NumArcs(); id++ {
		aa := spec.Assets[id]
		owner := spec.PartyOf(spec.D.Arc(id).Head)
		if err := r.reg.Chain(aa.Chain).RegisterAsset(chain.Asset{
			ID:          aa.Asset,
			Description: fmt.Sprintf("asset for arc %d", id),
			Amount:      aa.Amount,
		}, owner); err != nil {
			return nil, fmt.Errorf("core: registering assets: %w", err)
		}
	}
	if spec.Broadcast {
		r.reg.Chain(BroadcastChain)
	}
	r.reg.SetObserverAll(r.onNote)

	// Start every party at T−Δ, in vertex order. The market clearing sets
	// the start time "at least Δ in the future" precisely so leaders can
	// publish ahead: their contracts land by T−Δ and are confirmed by
	// every follower at T, which is what makes the paper's deadline
	// arithmetic exactly tight (the leader's degenerate hashkey expires
	// at T + diam·Δ, the very tick Phase One completes for it under
	// worst-case latency).
	initAt := spec.Start.Add(-vtime.Duration(spec.Delta))
	for v := range r.behaviors {
		v := v
		r.sched.At(initAt, func() { r.behaviors[v].Init(r.envs[v]) })
	}

	horizon := r.opts.Horizon
	if horizon == 0 {
		horizon = spec.Horizon()
	}
	release()
	r.sched.RunUntil(horizon)

	return r.buildResult(), nil
}

// onNote runs synchronously inside each chain mutation and fans the
// observation out to the watching parties Δ later.
func (r *Runner) onNote(n chain.Notification) {
	delta := vtime.Duration(r.spec.DeltaFor(n.Chain))
	switch n.Kind {
	case chain.NoteContractPublished:
		c, ok := n.Event.(chain.Contract)
		if !ok {
			return
		}
		arcID, ok := contractArc(c)
		if !ok {
			return
		}
		if n.At.After(r.lastPub) {
			r.lastPub = n.At
		}
		r.notifyIncident(arcID, delta, func(b Behavior, e Env) { b.OnContract(e, arcID, c) })
	case chain.NoteInvocation:
		switch ev := n.Event.(type) {
		case htlc.UnlockedEvent:
			r.notifyIncident(ev.ArcID, delta, func(b Behavior, e Env) {
				b.OnUnlock(e, ev.ArcID, ev.LockIndex, ev.Key)
			})
		case htlc.RedeemedEvent:
			r.notifyIncident(ev.ArcID, delta, func(b Behavior, e Env) {
				b.OnRedeem(e, ev.ArcID, ev.Secret)
			})
		}
	case chain.NoteTransfer:
		ch := r.reg.Chain(n.Chain)
		c, ok := ch.Contract(n.Contract)
		if !ok {
			return
		}
		arcID, ok := contractArc(c)
		if !ok {
			return
		}
		owner, _ := ch.OwnerOf(c.AssetID())
		claimed := owner == chain.ByParty(counterpartyOf(c))
		r.resolved[arcID] = true
		r.resClaim[arcID] = claimed
		if n.At.After(r.lastDone) {
			r.lastDone = n.At
		}
		r.notifyIncident(arcID, delta, func(b Behavior, e Env) { b.OnSettled(e, arcID, claimed) })
	case chain.NoteData:
		if n.Chain != BroadcastChain {
			return
		}
		msg, ok := n.Event.(BroadcastMsg)
		if !ok {
			return
		}
		for v := range r.behaviors {
			v := v
			r.sched.At(r.sched.Now().Add(delta), func() {
				if r.abandoned[v] {
					return
				}
				r.behaviors[v].OnBroadcast(r.envs[v], msg.LockIndex, msg.Key)
			})
		}
	}
}

// notifyIncident schedules a behavior callback for the head and tail
// parties of an arc, after the detection latency.
func (r *Runner) notifyIncident(arcID int, after vtime.Duration, fn func(Behavior, Env)) {
	arc := r.spec.D.Arc(arcID)
	at := r.sched.Now().Add(after)
	for _, v := range []digraph.Vertex{arc.Head, arc.Tail} {
		v := v
		r.sched.At(at, func() {
			if r.abandoned[v] {
				return
			}
			fn(r.behaviors[v], r.envs[v])
		})
	}
}

// RedeemedEvent carries the HTLC secret; UnlockedEvent the hashkey. Both
// carry their arc. contractArc recovers the arc for any contract type.
func contractArc(c chain.Contract) (int, bool) {
	switch ct := c.(type) {
	case *htlc.Swap:
		return ct.ArcID(), true
	case *htlc.HTLC:
		return ct.ArcID(), true
	default:
		return 0, false
	}
}

func counterpartyOf(c chain.Contract) chain.PartyID {
	switch ct := c.(type) {
	case *htlc.Swap:
		return ct.Params().Counter
	case *htlc.HTLC:
		return ct.Params().Counter
	default:
		return ""
	}
}

func (r *Runner) buildResult() *Result {
	spec := r.spec
	triggered := make(map[int]bool, spec.D.NumArcs())
	for id := 0; id < spec.D.NumArcs(); id++ {
		if r.resolved[id] {
			triggered[id] = r.resClaim[id]
			continue
		}
		c, ok := r.reg.Chain(spec.Assets[id].Chain).Contract(spec.ContractID(id))
		if !ok {
			continue
		}
		if sw, ok := c.(*htlc.Swap); ok && sw.AllUnlocked() {
			triggered[id] = true // claimable bearer right
		}
	}
	var conforming []digraph.Vertex
	for v := range r.behaviors {
		if !r.custom[v] {
			conforming = append(conforming, digraph.Vertex(v))
		}
	}
	return &Result{
		Spec:       spec,
		Triggered:  triggered,
		Report:     outcome.NewReport(spec.D, triggered),
		Conforming: conforming,
		Log:        r.log,
		Counters:   r.counters,
		Timing: metrics.Timing{
			Start:      spec.Start,
			Delta:      spec.Delta,
			DeployDone: r.lastPub,
			AllDone:    r.lastDone,
		},
		StorageBytes: r.reg.TotalStorageBytes(),
		Registry:     r.reg,
	}
}

// partyEnv implements Env for one vertex.
type partyEnv struct {
	r *Runner
	v digraph.Vertex
}

var _ Env = (*partyEnv)(nil)

func (e *partyEnv) Now() vtime.Ticks        { return e.r.sched.Now() }
func (e *partyEnv) Spec() *Spec             { return e.r.spec }
func (e *partyEnv) Vertex() digraph.Vertex  { return e.v }
func (e *partyEnv) Party() chain.PartyID    { return e.r.spec.PartyOf(e.v) }
func (e *partyEnv) Signer() *hashkey.Signer { return e.r.setup.Signers[e.v] }

func (e *partyEnv) Secret() (hashkey.Secret, int, bool) {
	idx, ok := e.r.spec.LeaderIndex(e.v)
	if !ok {
		return hashkey.Secret{}, 0, false
	}
	return e.r.setup.Secrets[idx], idx, true
}

func (e *partyEnv) chainOf(arcID int) *chain.Chain {
	return e.r.reg.Chain(e.r.spec.Assets[arcID].Chain)
}

func (e *partyEnv) Contract(arcID int) (chain.Contract, bool) {
	return e.chainOf(arcID).Contract(e.r.spec.ContractID(arcID))
}

func (e *partyEnv) Resolved(arcID int) (settled, claimed bool) {
	return e.r.resolved[arcID], e.r.resClaim[arcID]
}

func (e *partyEnv) Publish(arcID int) error {
	if e.r.spec.Kind == KindGeneral {
		return e.PublishSwapParams(e.r.spec.ContractParams(arcID))
	}
	return e.PublishHTLCParams(e.r.spec.HTLCParams(arcID))
}

func (e *partyEnv) PublishHTLCParams(p htlc.HTLCParams) error {
	h, err := htlc.NewHTLC(p)
	if err != nil {
		return err
	}
	return e.publishContract(p.ArcID, h)
}

func (e *partyEnv) PublishSwapParams(p htlc.SwapParams) error {
	sw, err := htlc.NewSwap(p)
	if err != nil {
		return err
	}
	return e.publishContract(p.ArcID, sw)
}

func (e *partyEnv) publishContract(arcID int, c chain.Contract) error {
	if err := e.chainOf(arcID).PublishContract(e.Party(), c); err != nil {
		e.r.counters.AddFailed()
		return err
	}
	e.r.counters.AddPublish(c.StorageSize())
	e.Note(trace.KindContractPublished, arcID, -1, "")
	return nil
}

func (e *partyEnv) Unlock(arcID, lockIdx int, key hashkey.Hashkey) error {
	args := htlc.UnlockArgs{LockIndex: lockIdx, Key: key}
	err := e.chainOf(arcID).Invoke(e.Party(), e.r.spec.ContractID(arcID), htlc.MethodUnlock, args, args.WireSize())
	if err != nil {
		e.r.counters.AddFailed()
		return err
	}
	e.r.counters.AddUnlock(args.WireSize())
	e.Note(trace.KindUnlocked, arcID, lockIdx, fmt.Sprintf("path %v", key.Path))
	return nil
}

func (e *partyEnv) Redeem(arcID int, secret hashkey.Secret) error {
	args := htlc.RedeemArgs{Secret: secret}
	err := e.chainOf(arcID).Invoke(e.Party(), e.r.spec.ContractID(arcID), htlc.MethodRedeem, args, args.WireSize())
	if err != nil {
		e.r.counters.AddFailed()
		return err
	}
	e.r.counters.AddUnlock(args.WireSize())
	e.Note(trace.KindClaimed, arcID, -1, "redeemed")
	return nil
}

func (e *partyEnv) Claim(arcID int) error {
	if e.chainOf(arcID).Closed(e.r.spec.ContractID(arcID)) {
		return chain.ErrContractClosed
	}
	err := e.chainOf(arcID).Invoke(e.Party(), e.r.spec.ContractID(arcID), htlc.MethodClaim, nil, claimCallBytes)
	if err != nil {
		e.r.counters.AddFailed()
		return err
	}
	e.r.counters.AddClaim()
	e.Note(trace.KindClaimed, arcID, -1, "")
	return nil
}

func (e *partyEnv) Refund(arcID int) error {
	if e.chainOf(arcID).Closed(e.r.spec.ContractID(arcID)) {
		return chain.ErrContractClosed
	}
	err := e.chainOf(arcID).Invoke(e.Party(), e.r.spec.ContractID(arcID), htlc.MethodRefund, nil, claimCallBytes)
	if err != nil {
		e.r.counters.AddFailed()
		return err
	}
	e.r.counters.AddRefund()
	e.Note(trace.KindRefunded, arcID, -1, "")
	return nil
}

// claimCallBytes is the modeled on-chain size of a claim or refund call.
const claimCallBytes = 16

func (e *partyEnv) Broadcast(lockIdx int, key hashkey.Hashkey) {
	if !e.r.spec.Broadcast {
		return
	}
	msg := BroadcastMsg{Tag: e.r.spec.Tag, LockIndex: lockIdx, Key: key}
	e.r.reg.Chain(BroadcastChain).PublishData(e.Party(),
		fmt.Sprintf("secret for lock %d", lockIdx), msg, key.WireSize())
	e.Note(trace.KindBroadcast, -1, lockIdx, "")
}

func (e *partyEnv) At(t vtime.Ticks, fn func()) { e.r.sched.At(t, fn) }

func (e *partyEnv) Abandon(reason string) {
	if e.r.abandoned[e.v] {
		return
	}
	e.r.abandoned[e.v] = true
	e.Note(trace.KindAbandoned, -1, -1, reason)
}

func (e *partyEnv) Note(kind trace.Kind, arcID, lockIdx int, detail string) {
	e.r.log.Append(trace.Event{
		At:     e.r.sched.Now(),
		Kind:   kind,
		Party:  string(e.Party()),
		Arc:    arcID,
		Lock:   lockIdx,
		Detail: detail,
	})
}
