package htlc

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func newHTLC(t *testing.T) (*HTLC, hashkey.Secret) {
	t.Helper()
	secret, err := hashkey.NewSecret(rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHTLC(HTLCParams{
		ID:      "h1",
		ArcID:   3,
		Lock:    secret.Lock(),
		Timeout: 160,
		Party:   "carol",
		Counter: "alice",
		Asset:   "title",
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, secret
}

func TestNewHTLCValidation(t *testing.T) {
	if _, err := NewHTLC(HTLCParams{Timeout: 0}); err == nil {
		t.Error("zero timeout should be rejected")
	}
}

func TestRedeemHappyPath(t *testing.T) {
	h, secret := newHTLC(t)
	res, err := h.Invoke(call(MethodRedeem, "alice", 150, RedeemArgs{Secret: secret}))
	if err != nil {
		t.Fatalf("redeem: %v", err)
	}
	if res.Transfer == nil || *res.Transfer != chain.ByParty("alice") {
		t.Errorf("transfer = %v, want alice", res.Transfer)
	}
	ev, ok := res.Event.(RedeemedEvent)
	if !ok || ev.Secret != secret || ev.ArcID != 3 {
		t.Errorf("event = %+v, want RedeemedEvent with the secret", res.Event)
	}
	if !h.Redeemed() {
		t.Error("Redeemed should report true")
	}
}

func TestRedeemRejections(t *testing.T) {
	_, secret := newHTLC(t)
	wrong, _ := hashkey.NewSecret(rand.New(rand.NewSource(22)))
	tests := []struct {
		name string
		call chain.Call
		want error
	}{
		{"wrong sender", call(MethodRedeem, "carol", 150, RedeemArgs{Secret: secret}), ErrNotCounterparty},
		{"bad args", call(MethodRedeem, "alice", 150, 42), ErrBadArgs},
		{"at timeout", call(MethodRedeem, "alice", 160, RedeemArgs{Secret: secret}), ErrExpired},
		{"after timeout", call(MethodRedeem, "alice", 999, RedeemArgs{Secret: secret}), ErrExpired},
		{"wrong secret", call(MethodRedeem, "alice", 150, RedeemArgs{Secret: wrong}), ErrWrongSecret},
		{"unknown method", call("claim", "alice", 150, nil), ErrUnknownMethod},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, _ := newHTLC(t)
			if _, err := h.Invoke(tt.call); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestHTLCRefund(t *testing.T) {
	h, _ := newHTLC(t)
	if _, err := h.Invoke(call(MethodRefund, "alice", 200, nil)); !errors.Is(err, ErrNotParty) {
		t.Errorf("refund by counterparty err = %v, want ErrNotParty", err)
	}
	if _, err := h.Invoke(call(MethodRefund, "carol", 159, nil)); !errors.Is(err, ErrNotRefundable) {
		t.Errorf("early refund err = %v, want ErrNotRefundable", err)
	}
	res, err := h.Invoke(call(MethodRefund, "carol", 160, nil))
	if err != nil {
		t.Fatalf("refund at timeout: %v", err)
	}
	if res.Transfer == nil || *res.Transfer != chain.ByParty("carol") {
		t.Errorf("transfer = %v, want carol", res.Transfer)
	}
}

// TestSection1Race documents the boundary the intro warns about: redeem
// strictly before the timeout, refund at it — the same tick can never
// satisfy both.
func TestSection1Race(t *testing.T) {
	h, secret := newHTLC(t)
	if _, err := h.Invoke(call(MethodRedeem, "alice", 159, RedeemArgs{Secret: secret})); err != nil {
		t.Errorf("redeem at timeout-1: %v", err)
	}
	h2, secret2 := newHTLC(t)
	_ = secret2
	if _, err := h2.Invoke(call(MethodRedeem, "alice", 160, RedeemArgs{Secret: secret2})); !errors.Is(err, ErrExpired) {
		t.Errorf("redeem at timeout err = %v, want ErrExpired", err)
	}
	if _, err := h2.Invoke(call(MethodRefund, "carol", 160, nil)); err != nil {
		t.Errorf("refund at timeout: %v", err)
	}
}

func TestHTLCOnChainLifecycle(t *testing.T) {
	secret, _ := hashkey.NewSecret(rand.New(rand.NewSource(23)))
	clock := vtime.ClockFunc(func() vtime.Ticks { return 150 })
	ch := chain.New("title", clock)
	if err := ch.RegisterAsset(chain.Asset{ID: "cadillac"}, "carol"); err != nil {
		t.Fatal(err)
	}
	h, _ := NewHTLC(HTLCParams{
		ID: "t", ArcID: 2, Lock: secret.Lock(), Timeout: 160,
		Party: "carol", Counter: "alice", Asset: "cadillac",
	})
	if err := ch.PublishContract("carol", h); err != nil {
		t.Fatal(err)
	}
	args := RedeemArgs{Secret: secret}
	if err := ch.Invoke("alice", "t", MethodRedeem, args, args.WireSize()); err != nil {
		t.Fatalf("redeem: %v", err)
	}
	if owner, _ := ch.OwnerOf("cadillac"); owner != chain.ByParty("alice") {
		t.Errorf("owner = %v, want alice", owner)
	}
}

func TestHTLCAccessors(t *testing.T) {
	h, _ := newHTLC(t)
	if h.ContractID() != "h1" || h.Party() != "carol" || h.AssetID() != "title" || h.ArcID() != 3 {
		t.Error("accessor mismatch")
	}
	if h.StorageSize() <= 0 {
		t.Error("StorageSize should be positive")
	}
	if h.Params().Timeout != 160 {
		t.Error("Params mismatch")
	}
	if (RedeemArgs{}).WireSize() != hashkey.SecretSize {
		t.Error("RedeemArgs wire size")
	}
}

// revertRedeem is a scripted commitment model: the contract's second fated
// record (idx 1, the first redeem) reverts two ticks after it lands;
// everything else finalizes at depth 4.
type revertRedeem struct{}

func (revertRedeem) Name() string         { return "revert-redeem" }
func (revertRedeem) Timing() chain.Timing { return chain.Timing{ConfirmDepth: 4} }
func (revertRedeem) Fate(_ string, _ chain.ContractID, idx int) chain.Fate {
	f := chain.Fate{FinalAfter: 4}
	if idx == 1 {
		f.RevertAfter = 2
	}
	return f
}

// tickClock is a manually advanced chain clock.
type tickClock struct{ now vtime.Ticks }

func (c *tickClock) Now() vtime.Ticks { return c.now }

// TestHTLCRevertThenRedeemAgain is the classic HTLC's half of the reorg
// contract swapcontract_test.go's lifecycle tests cover for Swap: a chain
// under a commitment model fates an HTLC's records, a reverted redeem rolls
// the contract back to locked-and-escrowed, and the re-applied redeem (or a
// fresh one) settles it again.
func TestHTLCRevertThenRedeemAgain(t *testing.T) {
	secret, _ := hashkey.NewSecret(rand.New(rand.NewSource(25)))
	clk := &tickClock{now: 100}
	ch := chain.New("title", clk)
	if err := ch.SetCommitmentModel(revertRedeem{}, func(vtime.Ticks) {}); err != nil {
		t.Fatal(err)
	}
	if err := ch.RegisterAsset(chain.Asset{ID: "cadillac"}, "carol"); err != nil {
		t.Fatal(err)
	}
	h, _ := NewHTLC(HTLCParams{
		ID: "t", ArcID: 2, Lock: secret.Lock(), Timeout: 160,
		Party: "carol", Counter: "alice", Asset: "cadillac",
	})
	if err := ch.PublishContract("carol", h); err != nil {
		t.Fatal(err)
	}
	clk.now = 110
	args := RedeemArgs{Secret: secret}
	if err := ch.Invoke("alice", "t", MethodRedeem, args, args.WireSize()); err != nil {
		t.Fatalf("redeem: %v", err)
	}
	if !h.Redeemed() || !ch.Closed("t") {
		t.Fatal("redeem did not settle the contract")
	}
	if n := ch.PendingCommitments(); n == 0 {
		t.Fatal("an HTLC's records were not fated: the contract is not revertible to the chain")
	}

	// The redeem's revert is due at 112 and takes its transfer with it.
	clk.now = 112
	ch.SettleCommitments(clk.now)
	if h.Redeemed() {
		t.Error("redeemed flag survived the revert")
	}
	if ch.Closed("t") {
		t.Error("contract still closed after the revert")
	}
	if owner, _ := ch.OwnerOf("cadillac"); owner != chain.ByEscrow("t") {
		t.Errorf("owner after revert = %v, want back in escrow", owner)
	}
	reverted := 0
	for _, r := range ch.Records() {
		if r.Kind == chain.NoteReverted {
			reverted++
		}
	}
	if reverted != 2 {
		t.Errorf("reverted records = %d, want 2 (the redeem and its transfer)", reverted)
	}

	// The chain re-applies the dropped redeem one tick later; by the time
	// everything is final the asset is alice's again.
	for clk.now < 125 {
		clk.now++
		ch.SettleCommitments(clk.now)
	}
	if n := ch.PendingCommitments(); n != 0 {
		t.Fatalf("pending commitments after drain = %d, want 0", n)
	}
	if !h.Redeemed() || !ch.Closed("t") {
		t.Error("re-applied redeem did not settle the contract")
	}
	if owner, _ := ch.OwnerOf("cadillac"); owner != chain.ByParty("alice") {
		t.Errorf("owner = %v, want alice", owner)
	}
	if !ch.VerifyLedger() {
		t.Error("hash chain broken after revert")
	}
}
