package htlc

import (
	"errors"
	"fmt"
	"strconv"
	"unsafe"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// HTLCParams configures a classic hashed-timelock contract: one hashlock,
// one absolute timelock. The single-leader protocol of Section 4.6 uses
// these with the staircase deadlines (core.Spec.HTLCTimeout); the baseline
// protocols use them with their own (possibly broken) deadlines.
type HTLCParams struct {
	ID      chain.ContractID
	ArcID   int
	Lock    hashkey.Lock
	Timeout vtime.Ticks // absolute: redeem strictly before, refund at or after
	Party   chain.PartyID
	Counter chain.PartyID
	Asset   chain.AssetID
}

// RedeemArgs is the payload of a redeem call. An HTLC takes it by value
// or by pointer; a caller that passes a pointer may reuse what it points
// at once the call returns.
type RedeemArgs struct {
	Secret hashkey.Secret
}

// WireSize returns the bytes this call occupies on-chain.
func (a RedeemArgs) WireSize() int { return hashkey.SecretSize }

// Own implements chain.ReusedArgs: the value a chain keeps to re-apply
// the call, not the buffer the pointer names.
func (a *RedeemArgs) Own() any { return *a }

// RedeemedEvent is emitted to chain observers, by pointer, when a classic
// HTLC is redeemed, revealing the secret to everyone watching the chain.
// An emitted event is never written again.
type RedeemedEvent struct {
	ArcID  int
	Secret hashkey.Secret
}

// HTLC is the classic two-method hashed timelock contract: redeem(secret)
// by the counterparty before the timeout transfers the asset and reveals
// the secret; refund() by the party at or after the timeout reclaims it.
//
// The contract owns what a redeem hands the chain: the event its first
// redeem emits, and the bytes of the redeem note, which the ledger keeps
// as a string over them. Both are written once; a redeem after a revert
// emits a fresh event and the same note.
type HTLC struct {
	p        HTLCParams
	redeemed bool
	emitted  bool  // ev has been emitted
	noteLen  uint8 // bytes of note written; 0 until the first redeem
	ev       RedeemedEvent
	note     [noteBytes]byte
}

// noteBytes is the redeem note an HTLC holds inline, "arc N redeemed by
// X": room for a counterparty name of a dozen bytes, which keeps the
// contract in the 192-byte size class; a longer note is built on the heap
// per redeem.
const noteBytes = 32

// Compile-time interface checks.
var (
	_ chain.Contract           = (*HTLC)(nil)
	_ chain.RevertibleContract = (*HTLC)(nil)
)

// NewHTLC constructs a classic HTLC.
func NewHTLC(p HTLCParams) (*HTLC, error) { return NewHTLCIn(p, nil) }

// NewHTLCIn is NewHTLC building the contract in slot, storage its swap's
// run owns, so a swap's contracts share one allocation. A slot is used
// once: when it already holds a contract, or is
// nil, the contract takes storage of its own, so one a chain may still
// hold or re-apply after a revert is never written again. Calls on one
// slot must be serialized.
func NewHTLCIn(p HTLCParams, slot *HTLC) (*HTLC, error) {
	if p.Timeout <= 0 {
		return nil, errors.New("htlc: non-positive timeout")
	}
	if slot == nil || slot.p.Timeout != 0 {
		return &HTLC{p: p}, nil
	}
	*slot = HTLC{p: p}
	return slot, nil
}

// ContractID implements chain.Contract.
func (h *HTLC) ContractID() chain.ContractID { return h.p.ID }

// Party implements chain.Contract.
func (h *HTLC) Party() chain.PartyID { return h.p.Party }

// AssetID implements chain.Contract.
func (h *HTLC) AssetID() chain.AssetID { return h.p.Asset }

// StorageSize implements chain.Contract.
func (h *HTLC) StorageSize() int {
	return len(h.p.ID) + len(h.p.Party) + len(h.p.Counter) + len(h.p.Asset) +
		len(hashkey.Lock{}) + 8
}

// Params returns the contract's public parameters.
func (h *HTLC) Params() HTLCParams { return h.p }

// ArcID returns the swap-digraph arc this contract settles.
func (h *HTLC) ArcID() int { return h.p.ArcID }

// Redeemed reports whether the secret has been presented.
func (h *HTLC) Redeemed() bool { return h.redeemed }

// StateSnapshot implements chain.RevertibleContract. The redeemed flag is
// the contract's whole mutable state: a redeem or refund also closes the
// contract, but that bit lives on the hosting chain, which unwinds it with
// the transfer record.
func (h *HTLC) StateSnapshot() any { return h.redeemed }

// StateRestore implements chain.RevertibleContract.
func (h *HTLC) StateRestore(snap any) { h.redeemed = snap.(bool) }

// Invoke implements chain.Contract.
func (h *HTLC) Invoke(call chain.Call) (chain.Result, error) {
	switch call.Method {
	case MethodRedeem:
		return h.invokeRedeem(call)
	case MethodRefund:
		return h.invokeRefund(call)
	default:
		return chain.Result{}, fmt.Errorf("%w: %q", ErrUnknownMethod, call.Method)
	}
}

func (h *HTLC) invokeRedeem(call chain.Call) (chain.Result, error) {
	if call.Sender != h.p.Counter {
		return chain.Result{}, fmt.Errorf("%w: sender %s", ErrNotCounterparty, call.Sender)
	}
	var args *RedeemArgs
	switch a := call.Args.(type) {
	case *RedeemArgs:
		args = a
	case RedeemArgs:
		args = &a
	}
	if args == nil {
		return chain.Result{}, fmt.Errorf("%w: redeem wants RedeemArgs", ErrBadArgs)
	}
	if !call.Now.Before(h.p.Timeout) {
		return chain.Result{}, fmt.Errorf("%w: now %d, timeout %d", ErrExpired, call.Now, h.p.Timeout)
	}
	if !args.Secret.Matches(h.p.Lock) {
		return chain.Result{}, ErrWrongSecret
	}
	h.redeemed = true
	ev := &h.ev
	if h.emitted {
		ev = new(RedeemedEvent) // redeemed again after a revert
	}
	h.emitted = true
	*ev = RedeemedEvent{ArcID: h.p.ArcID, Secret: args.Secret}
	return chain.Result{
		Transfer: chain.ByParty(h.p.Counter),
		Note:     h.redeemNote(),
		Event:    ev,
	}, nil
}

// redeemNote is the redeem's ledger note. Notes are covered by the
// ledger's record hash: this spells the historical fmt layout byte for
// byte. It is spelled into the contract's own buffer by the first redeem,
// and every redeem returns a string over those bytes, which nothing
// writes again.
func (h *HTLC) redeemNote() string {
	if h.noteLen == 0 {
		b := strconv.AppendInt(append(h.note[:0], "arc "...), int64(h.p.ArcID), 10)
		b = append(append(b, " redeemed by "...), h.p.Counter...)
		if len(b) > len(h.note) {
			return string(b) // outgrew the buffer: b is a heap copy
		}
		h.noteLen = uint8(len(b))
	}
	return unsafe.String(&h.note[0], int(h.noteLen))
}

func (h *HTLC) invokeRefund(call chain.Call) (chain.Result, error) {
	if call.Sender != h.p.Party {
		return chain.Result{}, fmt.Errorf("%w: sender %s", ErrNotParty, call.Sender)
	}
	if call.Now.Before(h.p.Timeout) {
		return chain.Result{}, fmt.Errorf("%w: now %d, timeout %d", ErrNotRefundable, call.Now, h.p.Timeout)
	}
	return chain.Result{
		Transfer: chain.ByParty(h.p.Party),
		Note:     "arc " + strconv.Itoa(h.p.ArcID) + " refunded to " + string(h.p.Party),
	}, nil
}
