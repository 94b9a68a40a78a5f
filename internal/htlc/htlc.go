package htlc

import (
	"errors"
	"fmt"

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

// RedeemArgs is the payload of a redeem call.
type RedeemArgs struct {
	Secret hashkey.Secret
}

// WireSize returns the bytes this call occupies on-chain.
func (a RedeemArgs) WireSize() int { return hashkey.SecretSize }

// RedeemedEvent is emitted when a classic HTLC is redeemed, revealing the
// secret to everyone watching the chain.
type RedeemedEvent struct {
	ArcID  int
	Secret hashkey.Secret
}

// HTLC is the classic two-method hashed timelock contract: redeem(secret)
// by the counterparty before the timeout transfers the asset and reveals
// the secret; refund() by the party at or after the timeout reclaims it.
type HTLC struct {
	p        HTLCParams
	redeemed bool
}

// Compile-time interface checks.
var (
	_ chain.Contract           = (*HTLC)(nil)
	_ chain.RevertibleContract = (*HTLC)(nil)
)

// NewHTLC constructs a classic HTLC.
func NewHTLC(p HTLCParams) (*HTLC, error) {
	if p.Timeout <= 0 {
		return nil, errors.New("htlc: non-positive timeout")
	}
	return &HTLC{p: p}, nil
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
	args, ok := call.Args.(RedeemArgs)
	if !ok {
		return chain.Result{}, fmt.Errorf("%w: redeem wants RedeemArgs", ErrBadArgs)
	}
	if !call.Now.Before(h.p.Timeout) {
		return chain.Result{}, fmt.Errorf("%w: now %d, timeout %d", ErrExpired, call.Now, h.p.Timeout)
	}
	if !args.Secret.Matches(h.p.Lock) {
		return chain.Result{}, ErrWrongSecret
	}
	h.redeemed = true
	to := chain.ByParty(h.p.Counter)
	return chain.Result{
		Transfer: &to,
		Note:     fmt.Sprintf("arc %d redeemed by %s", h.p.ArcID, h.p.Counter),
		Event:    RedeemedEvent{ArcID: h.p.ArcID, Secret: args.Secret},
	}, nil
}

func (h *HTLC) invokeRefund(call chain.Call) (chain.Result, error) {
	if call.Sender != h.p.Party {
		return chain.Result{}, fmt.Errorf("%w: sender %s", ErrNotParty, call.Sender)
	}
	if call.Now.Before(h.p.Timeout) {
		return chain.Result{}, fmt.Errorf("%w: now %d, timeout %d", ErrNotRefundable, call.Now, h.p.Timeout)
	}
	to := chain.ByParty(h.p.Party)
	return chain.Result{
		Transfer: &to,
		Note:     fmt.Sprintf("arc %d refunded to %s", h.p.ArcID, h.p.Party),
	}, nil
}
