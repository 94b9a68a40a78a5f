// Package htlc implements the hashed-timelock contracts of the swap
// protocol: the general multi-leader Swap contract of the paper's
// Figures 4 and 5, whose hashlock vector is opened by path-signed
// hashkeys, and the classic single-hashlock HTLC used by the single-leader
// protocol of Section 4.6 and by the baseline protocols.
package htlc

import (
	"errors"
	"fmt"
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
// which hashkey.
type UnlockArgs struct {
	LockIndex int
	Key       hashkey.Hashkey
}

// WireSize returns the bytes this call occupies on-chain.
func (a UnlockArgs) WireSize() int { return 4 + a.Key.WireSize() }

// UnlockedEvent is emitted to chain observers when a hashlock opens; it is
// how secrets propagate in Phase Two — the hashkey is public on the ledger
// and the next party extends it.
type UnlockedEvent struct {
	ArcID     int
	LockIndex int
	Key       hashkey.Hashkey
}

// Swap is the paper's swap contract (Figures 4 and 5). It implements
// chain.Contract; all state transitions flow through Invoke.
type Swap struct {
	p          SwapParams
	unlocked   []bool
	unlockedAt []vtime.Ticks     // chain time each lock opened (public state)
	keys       []hashkey.Hashkey // the hashkey that opened each lock
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
	return &Swap{
		p:          p,
		unlocked:   make([]bool, len(p.Locks)),
		unlockedAt: make([]vtime.Ticks, len(p.Locks)),
		keys:       make([]hashkey.Hashkey, len(p.Locks)),
	}, nil
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
	n += 8 + 8 + 4 + len(s.unlocked)   // start, delta, diam bound, unlocked flags
	return n
}

// Params returns a copy of the contract's public parameters; parties read
// them to verify a published contract against the swap plan.
func (s *Swap) Params() SwapParams {
	p := s.p
	p.Leaders = append([]digraph.Vertex(nil), s.p.Leaders...)
	p.Locks = append([]hashkey.Lock(nil), s.p.Locks...)
	p.Timelocks = append([]vtime.Ticks(nil), s.p.Timelocks...)
	return p
}

// ArcID returns the swap-digraph arc this contract settles.
func (s *Swap) ArcID() int { return s.p.ArcID }

// swapSnapshot is a Swap's mutable state — exactly the per-lock unlock
// columns; everything in SwapParams is immutable after construction.
type swapSnapshot struct {
	unlocked   []bool
	unlockedAt []vtime.Ticks
	keys       []hashkey.Hashkey
}

// StateSnapshot implements chain.RevertibleContract: the hosting chain
// captures the unlock columns before applying an invocation, so a
// commitment-model reorg can roll the invocation back. Called under the
// chain lock, like Invoke.
func (s *Swap) StateSnapshot() any {
	return swapSnapshot{
		unlocked:   append([]bool(nil), s.unlocked...),
		unlockedAt: append([]vtime.Ticks(nil), s.unlockedAt...),
		keys:       append([]hashkey.Hashkey(nil), s.keys...),
	}
}

// StateRestore implements chain.RevertibleContract.
func (s *Swap) StateRestore(snap any) {
	ss := snap.(swapSnapshot)
	s.unlocked = append([]bool(nil), ss.unlocked...)
	s.unlockedAt = append([]vtime.Ticks(nil), ss.unlockedAt...)
	s.keys = append([]hashkey.Hashkey(nil), ss.keys...)
}

// Unlocked returns a copy of the per-lock unlocked flags.
func (s *Swap) Unlocked() []bool {
	return append([]bool(nil), s.unlocked...)
}

// AllUnlocked reports whether every hashlock is open (the contract is
// claimable — "triggered" in the paper's terms).
func (s *Swap) AllUnlocked() bool {
	for _, u := range s.unlocked {
		if !u {
			return false
		}
	}
	return true
}

// UnlockKey returns the hashkey that opened lock i, valid only when
// Unlocked()[i].
func (s *Swap) UnlockKey(i int) hashkey.Hashkey { return s.keys[i].Clone() }

// UnlockTime returns the chain time lock i opened and whether it has.
func (s *Swap) UnlockTime(i int) (vtime.Ticks, bool) {
	if i < 0 || i >= len(s.unlocked) || !s.unlocked[i] {
		return 0, false
	}
	return s.unlockedAt[i], true
}

// Refundable reports whether some hashlock is still locked strictly past
// its (inclusive) deadline, i.e. can never be opened again.
func (s *Swap) Refundable(now vtime.Ticks) bool {
	for i, u := range s.unlocked {
		if !u && now.After(s.p.Timelocks[i]) {
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
	args, ok := call.Args.(UnlockArgs)
	if !ok {
		return chain.Result{}, fmt.Errorf("%w: unlock wants UnlockArgs", ErrBadArgs)
	}
	i := args.LockIndex
	if i < 0 || i >= len(s.p.Locks) {
		return chain.Result{}, fmt.Errorf("%w: %d of %d", ErrLockIndex, i, len(s.p.Locks))
	}
	if s.unlocked[i] {
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
	s.unlocked[i] = true
	s.unlockedAt[i] = call.Now
	// One defensive clone, shared by the stored key and the event: both are
	// read-only from here (re-presentations Clone again before extending).
	key := args.Key.Clone()
	s.keys[i] = key
	return chain.Result{
		// Notes are covered by the ledger's record hash: these spell the
		// historical fmt layouts byte for byte.
		Note:  "hashlock " + strconv.Itoa(i) + " opened, path " + args.Key.Path.String(),
		Event: UnlockedEvent{ArcID: s.p.ArcID, LockIndex: i, Key: key},
	}, nil
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
	to := chain.ByParty(s.p.Counter)
	return chain.Result{
		Transfer: &to,
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
	to := chain.ByParty(s.p.Party)
	return chain.Result{
		Transfer: &to,
		Note:     "arc " + strconv.Itoa(s.p.ArcID) + " refunded to " + string(s.p.Party),
	}, nil
}
