// Package htlc implements the hashed-timelock contracts of the swap
// protocol: the general multi-leader Swap contract of the paper's
// Figures 4 and 5, whose hashlock vector is opened by path-signed
// hashkeys, and the classic single-hashlock HTLC used by the single-leader
// protocol of Section 4.6 and by the baseline protocols.
package htlc

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Contract method names, mirroring Figure 5.
const (
	MethodUnlock = "unlock"
	MethodClaim  = "claim"
	MethodRefund = "refund"
	// MethodRedeem is the classic HTLC's combined unlock-and-claim.
	MethodRedeem = "redeem"
)

// Errors returned by contract invocations.
var (
	ErrNotCounterparty  = errors.New("htlc: only the counterparty may call this")
	ErrNotParty         = errors.New("htlc: only the party may call this")
	ErrUnknownMethod    = errors.New("htlc: unknown method")
	ErrBadArgs          = errors.New("htlc: malformed arguments")
	ErrLockIndex        = errors.New("htlc: hashlock index out of range")
	ErrAlreadyUnlocked  = errors.New("htlc: hashlock already unlocked")
	ErrHashkeyExpired   = errors.New("htlc: hashkey past its path deadline")
	ErrWrongPresenter   = errors.New("htlc: hashkey path does not start at the counterparty")
	ErrLocksOutstanding = errors.New("htlc: not all hashlocks are unlocked")
	ErrNotRefundable    = errors.New("htlc: no hashlock is both locked and timed out")
	ErrExpired          = errors.New("htlc: contract timelock has passed")
	ErrWrongSecret      = errors.New("htlc: secret does not open the hashlock")
)

// SwapParams carries everything a Swap contract stores on-chain
// (Figure 4's long-lived state). All parties derive identical params from
// the published swap plan, which is how contract verification works.
type SwapParams struct {
	ID      chain.ContractID
	ArcID   int
	Digraph *digraph.Digraph
	Leaders []digraph.Vertex // leader vertex per hashlock index
	Locks   []hashkey.Lock
	// Timelocks holds the absolute per-lock deadlines: a hashkey for lock i
	// is valid while now ≤ Start + (DiamBound + |p|)·Δ, so lock i is dead
	// (and the contract refundable) once now > Timelocks[i] while i is
	// still locked. Timelocks[i] equals Start + (DiamBound +
	// maxpath(counterparty, leader_i))·Δ. Deadlines are inclusive because
	// the paper's timing is exactly tight: with worst-case Δ latencies the
	// leader detects its last entering contract precisely at
	// Start + diam·Δ, the deadline of its own degenerate hashkey.
	Timelocks []vtime.Ticks
	Party     chain.PartyID
	PartyV    digraph.Vertex
	Counter   chain.PartyID
	CounterV  digraph.Vertex
	Asset     chain.AssetID
	Start     vtime.Ticks
	Delta     vtime.Duration
	DiamBound int
	Directory hashkey.Directory
	// Broadcast admits the virtual length-1 hashkey path
	// (counterparty, leader) of the Section 4.5 optimization, where
	// followers learn secrets from a shared broadcast chain as if a direct
	// arc to the leader existed.
	Broadcast bool
	// Cache is the node-local hashkey verification cache. It is not part
	// of the on-chain contract state (a real chain's validator would hold
	// its own): plan verification ignores it, StorageSize does not charge
	// it, and nil simply disables amortized verification.
	Cache *hashkey.VerifyCache
}

// UnlockArgs is the payload of an unlock call: which hashlock, opened by
// which hashkey. A Swap takes it by value or by pointer; a caller that
// passes a pointer may reuse what it points at once the call returns.
type UnlockArgs struct {
	LockIndex int
	Key       hashkey.Hashkey
}

// WireSize returns the bytes this call occupies on-chain.
func (a UnlockArgs) WireSize() int { return 4 + a.Key.WireSize() }

// Own implements chain.ReusedArgs: the value a chain keeps to re-apply
// the call, sharing the caller's hashkey (which is never written) but not
// the buffer the pointer names.
func (a *UnlockArgs) Own() any { return *a }

// UnlockedEvent is emitted to chain observers, by pointer, when a hashlock
// opens; it is how secrets propagate in Phase Two — the hashkey is public
// on the ledger and the next party extends it. An emitted event is never
// written again.
type UnlockedEvent struct {
	ArcID     int
	LockIndex int
	Key       hashkey.Hashkey
}

// Swap is the paper's swap contract (Figures 4 and 5). It implements
// chain.Contract; all state transitions flow through Invoke.
//
// A contract owns its per-lock vectors: NewSwap copies the plan's leaders,
// hashlocks and timelocks (the digraph and the key directory, which no one
// writes, are shared). For up to inlineLocks hashlocks those copies, the
// unlock state and the events sit inside the contract's one allocation.
type Swap struct {
	p      SwapParams
	locks  []lockState // by hashlock index
	inline struct {
		leaders   [inlineLocks]digraph.Vertex
		locks     [inlineLocks]hashkey.Lock
		timelocks [inlineLocks]vtime.Ticks
		state     [inlineLocks]lockState
		// events[i] is the event lock i's first opening emits; an
		// opening after a revert emits a fresh one, so no emitted event
		// ever changes.
		events [inlineLocks]UnlockedEvent
	}
}

// inlineLocks is how many hashlocks a contract holds inline: the leaders
// of any swap of up to four parties (the complete digraph on four
// vertexes needs three).
const inlineLocks = 3

// lockState is one hashlock's public unlock state — the contract's whole
// mutable state, which a commitment-model snapshot captures. The lock is
// open when ev, the event its opening emitted, is set; ev.Key is the
// hashkey that opened it.
type lockState struct {
	at vtime.Ticks // chain time the lock opened
	ev *UnlockedEvent
}

// cut returns the first n elements of buf when they fit, else a fresh
// slice of n.
func cut[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
}

// Compile-time interface checks.
var (
	_ chain.Contract           = (*Swap)(nil)
	_ chain.RevertibleContract = (*Swap)(nil)
)

// NewSwap validates params and constructs the contract.
func NewSwap(p SwapParams) (*Swap, error) {
	if p.Digraph == nil {
		return nil, errors.New("htlc: nil digraph")
	}
	if len(p.Leaders) == 0 || len(p.Leaders) != len(p.Locks) || len(p.Locks) != len(p.Timelocks) {
		return nil, fmt.Errorf("htlc: leaders/locks/timelocks lengths %d/%d/%d must match and be positive",
			len(p.Leaders), len(p.Locks), len(p.Timelocks))
	}
	if p.Delta <= 0 {
		return nil, errors.New("htlc: non-positive delta")
	}
	arc := p.Digraph.Arc(p.ArcID)
	if arc.Head != p.PartyV || arc.Tail != p.CounterV {
		return nil, fmt.Errorf("htlc: arc %d runs %d->%d, contract names %d->%d",
			p.ArcID, arc.Head, arc.Tail, p.PartyV, p.CounterV)
	}
	s := &Swap{p: p}
	n := len(p.Locks)
	s.p.Leaders = cut(s.inline.leaders[:], n)
	s.p.Locks = cut(s.inline.locks[:], n)
	s.p.Timelocks = cut(s.inline.timelocks[:], n)
	copy(s.p.Leaders, p.Leaders)
	copy(s.p.Locks, p.Locks)
	copy(s.p.Timelocks, p.Timelocks)
	s.locks = cut(s.inline.state[:], n)
	return s, nil
}

// ContractID implements chain.Contract.
func (s *Swap) ContractID() chain.ContractID { return s.p.ID }

// Party implements chain.Contract.
func (s *Swap) Party() chain.PartyID { return s.p.Party }

// AssetID implements chain.Contract.
func (s *Swap) AssetID() chain.AssetID { return s.p.Asset }

// StorageSize implements chain.Contract: the dominant term is the digraph
// copy every contract carries (Figure 4 line 3), which is what makes total
// storage O(|A|²) across |A| contracts.
func (s *Swap) StorageSize() int {
	n := len(s.p.ID) + len(s.p.Party) + len(s.p.Counter) + len(s.p.Asset)
	n += s.p.Digraph.EncodedSize()
	n += 4 * len(s.p.Leaders)
	n += len(s.p.Locks) * len(hashkey.Lock{})
	n += 8 * len(s.p.Timelocks)
	n += len(s.p.Directory) * (4 + 32) // vertex id + public key
	n += 8 + 8 + 4 + len(s.locks)      // start, delta, diam bound, unlocked flags
	return n
}

// Params returns a copy of the contract's public parameters. Matches
// compares them in place.
func (s *Swap) Params() SwapParams {
	p := s.p
	p.Leaders = append([]digraph.Vertex(nil), s.p.Leaders...)
	p.Locks = append([]hashkey.Lock(nil), s.p.Locks...)
	p.Timelocks = append([]vtime.Ticks(nil), s.p.Timelocks...)
	return p
}

// Matches reports whether the contract was built from want, comparing in
// place (see SwapParams.Equal); a party checks a published contract
// against the swap plan with it.
func (s *Swap) Matches(want *SwapParams) bool { return s.p.Equal(want) }

// Equal reports whether p and q describe the same contract: every field
// but the node-local Cache, the digraphs by structure and arc order, the
// directories by key bytes.
func (p *SwapParams) Equal(q *SwapParams) bool {
	if p.ID != q.ID || p.ArcID != q.ArcID ||
		p.Party != q.Party || p.PartyV != q.PartyV ||
		p.Counter != q.Counter || p.CounterV != q.CounterV ||
		p.Asset != q.Asset || p.Start != q.Start ||
		p.Delta != q.Delta || p.DiamBound != q.DiamBound ||
		p.Broadcast != q.Broadcast {
		return false
	}
	if !slices.Equal(p.Leaders, q.Leaders) || !slices.Equal(p.Locks, q.Locks) ||
		!slices.Equal(p.Timelocks, q.Timelocks) {
		return false
	}
	if p.Digraph == nil || q.Digraph == nil {
		return p.Digraph == q.Digraph
	}
	if !digraph.StructuralEqual(p.Digraph, q.Digraph) {
		return false
	}
	for i := 0; i < q.Digraph.NumArcs(); i++ {
		if p.Digraph.Arc(i) != q.Digraph.Arc(i) {
			return false
		}
	}
	return slices.EqualFunc(p.Directory, q.Directory, func(a, b ed25519.PublicKey) bool {
		return bytes.Equal(a, b)
	})
}

// ArcID returns the swap-digraph arc this contract settles.
func (s *Swap) ArcID() int { return s.p.ArcID }

// StateSnapshot implements chain.RevertibleContract: the hosting chain
// captures the unlock columns — everything in SwapParams is immutable
// after construction — before applying an invocation, so a
// commitment-model reorg can roll the invocation back. Called under the
// chain lock, like Invoke.
func (s *Swap) StateSnapshot() any {
	return append([]lockState(nil), s.locks...)
}

// StateRestore implements chain.RevertibleContract.
func (s *Swap) StateRestore(snap any) {
	copy(s.locks, snap.([]lockState))
}

// Unlocked returns a copy of the per-lock unlocked flags.
func (s *Swap) Unlocked() []bool {
	out := make([]bool, len(s.locks))
	for i := range s.locks {
		out[i] = s.locks[i].ev != nil
	}
	return out
}

// AllUnlocked reports whether every hashlock is open (the contract is
// claimable — "triggered" in the paper's terms).
func (s *Swap) AllUnlocked() bool {
	for i := range s.locks {
		if s.locks[i].ev == nil {
			return false
		}
	}
	return true
}

// UnlockKey returns the hashkey that opened lock i, valid only when
// Unlocked()[i].
func (s *Swap) UnlockKey(i int) hashkey.Hashkey { return s.locks[i].ev.Key.Clone() }

// UnlockTime returns the chain time lock i opened and whether it has.
func (s *Swap) UnlockTime(i int) (vtime.Ticks, bool) {
	if i < 0 || i >= len(s.locks) || s.locks[i].ev == nil {
		return 0, false
	}
	return s.locks[i].at, true
}

// Refundable reports whether some hashlock is still locked strictly past
// its (inclusive) deadline, i.e. can never be opened again.
func (s *Swap) Refundable(now vtime.Ticks) bool {
	for i := range s.locks {
		if s.locks[i].ev == nil && now.After(s.p.Timelocks[i]) {
			return true
		}
	}
	return false
}

// Invoke implements chain.Contract, dispatching Figure 5's three methods.
func (s *Swap) Invoke(call chain.Call) (chain.Result, error) {
	switch call.Method {
	case MethodUnlock:
		return s.invokeUnlock(call)
	case MethodClaim:
		return s.invokeClaim(call)
	case MethodRefund:
		return s.invokeRefund(call)
	default:
		return chain.Result{}, fmt.Errorf("%w: %q", ErrUnknownMethod, call.Method)
	}
}

// invokeUnlock is Figure 5 lines 26–34: callable only by the counterparty,
// with a live, correctly signed hashkey whose path runs from the
// counterparty to the lock's leader.
func (s *Swap) invokeUnlock(call chain.Call) (chain.Result, error) {
	if call.Sender != s.p.Counter {
		return chain.Result{}, fmt.Errorf("%w: sender %s", ErrNotCounterparty, call.Sender)
	}
	var args *UnlockArgs
	switch a := call.Args.(type) {
	case *UnlockArgs:
		args = a
	case UnlockArgs:
		args = &a
	}
	if args == nil {
		return chain.Result{}, fmt.Errorf("%w: unlock wants UnlockArgs", ErrBadArgs)
	}
	i := args.LockIndex
	if i < 0 || i >= len(s.p.Locks) {
		return chain.Result{}, fmt.Errorf("%w: %d of %d", ErrLockIndex, i, len(s.p.Locks))
	}
	if s.locks[i].ev != nil {
		return chain.Result{}, fmt.Errorf("%w: index %d", ErrAlreadyUnlocked, i)
	}
	// Hashkey deadline: now ≤ start + (diam(D) + |p|)·Δ (inclusive; see
	// the SwapParams.Timelocks comment).
	deadline := s.p.Start.Add(vtime.Scale(s.p.DiamBound+args.Key.PathLen(), s.p.Delta))
	if call.Now.After(deadline) {
		return chain.Result{}, fmt.Errorf("%w: now %d, deadline %d (|p|=%d)",
			ErrHashkeyExpired, call.Now, deadline, args.Key.PathLen())
	}
	if args.Key.Presenter() != s.p.CounterV {
		return chain.Result{}, fmt.Errorf("%w: path starts at %d, counterparty is %d",
			ErrWrongPresenter, args.Key.Presenter(), s.p.CounterV)
	}
	if !s.pathOK(args.Key.Path, s.p.Leaders[i]) {
		return chain.Result{}, fmt.Errorf("htlc: unlock %d: %v is not a valid hashkey path", i, args.Key.Path)
	}
	if err := args.Key.VerifyCryptoExtended(s.p.Locks[i], s.p.Leaders[i], s.p.Directory, s.p.Cache); err != nil {
		return chain.Result{}, fmt.Errorf("htlc: unlock %d: %w", i, err)
	}
	// One defensive clone, kept in the event: read-only from here
	// (re-presentations extend into new buffers).
	var ev *UnlockedEvent
	if i < inlineLocks && s.inline.events[i].Key.Path == nil {
		ev = &s.inline.events[i]
	} else {
		ev = new(UnlockedEvent) // reopened after a revert, or not inline
	}
	*ev = UnlockedEvent{ArcID: s.p.ArcID, LockIndex: i, Key: args.Key.Clone()}
	s.locks[i] = lockState{at: call.Now, ev: ev}
	// Notes are covered by the ledger's record hash: this spells the
	// historical fmt layout byte for byte.
	var note [64]byte
	b := strconv.AppendInt(append(note[:0], "hashlock "...), int64(i), 10)
	b = ev.Key.Path.Append(append(b, " opened, path "...))
	return chain.Result{Note: string(b), Event: ev}, nil
}

// pathOK accepts simple paths of the swap digraph and, when the broadcast
// optimization is on, the virtual length-1 path (counterparty, leader).
func (s *Swap) pathOK(p digraph.Path, leader digraph.Vertex) bool {
	if s.p.Digraph.IsPath(p) {
		return true
	}
	return s.p.Broadcast && len(p) == 2 && p[0] != p[1] && p[1] == leader
}

// invokeClaim is Figure 5 lines 42–48: the counterparty takes the asset
// once every hashlock is open. There is no deadline on claiming — a fully
// unlocked contract is a bearer right.
func (s *Swap) invokeClaim(call chain.Call) (chain.Result, error) {
	if call.Sender != s.p.Counter {
		return chain.Result{}, fmt.Errorf("%w: sender %s", ErrNotCounterparty, call.Sender)
	}
	if !s.AllUnlocked() {
		return chain.Result{}, ErrLocksOutstanding
	}
	return chain.Result{
		Transfer: chain.ByParty(s.p.Counter),
		Note:     "arc " + strconv.Itoa(s.p.ArcID) + " claimed by " + string(s.p.Counter),
	}, nil
}

// invokeRefund is Figure 5 lines 35–41 (with the evident intent of line
// 37): the party reclaims the asset once some hashlock is still locked at
// its deadline, because no hashkey can ever open it again.
func (s *Swap) invokeRefund(call chain.Call) (chain.Result, error) {
	if call.Sender != s.p.Party {
		return chain.Result{}, fmt.Errorf("%w: sender %s", ErrNotParty, call.Sender)
	}
	if !s.Refundable(call.Now) {
		return chain.Result{}, ErrNotRefundable
	}
	return chain.Result{
		Transfer: chain.ByParty(s.p.Party),
		Note:     "arc " + strconv.Itoa(s.p.ArcID) + " refunded to " + string(s.p.Party),
	}, nil
}
