package htlc

import (
	"errors"
	"fmt"
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

// TestNewHTLCInUsesASlotOnce: a contract is built in the slot it is given
// only while the slot is empty; a second build for it, a nil slot or a
// refused build leaves the slot as it was.
func TestNewHTLCInUsesASlotOnce(t *testing.T) {
	h, _ := newHTLC(t)
	p := h.Params()
	slots := make([]HTLC, 2)
	if _, err := NewHTLCIn(HTLCParams{Timeout: 0}, &slots[0]); err == nil || slots[0] != (HTLC{}) {
		t.Fatalf("a zero timeout was built into the slot (err %v)", err)
	}
	first, err := NewHTLCIn(p, &slots[0])
	if err != nil || first != &slots[0] {
		t.Fatalf("NewHTLCIn = %p, %v; want the slot %p", first, err, &slots[0])
	}
	q := p
	q.ID = "h1-again"
	again, err := NewHTLCIn(q, &slots[0])
	if err != nil || again == &slots[0] || again.Params() != q || first.Params() != p {
		t.Fatalf("a second build on a used slot: %p %+v, slot %+v; want fresh storage and the slot kept",
			again, again.Params(), first.Params())
	}
	if own, err := NewHTLCIn(p, nil); err != nil || own == nil || own.Params() != p {
		t.Fatalf("NewHTLCIn with no slot = %v, %v", own, err)
	}
}

func TestRedeemHappyPath(t *testing.T) {
	h, secret := newHTLC(t)
	res, err := h.Invoke(call(MethodRedeem, "alice", 150, RedeemArgs{Secret: secret}))
	if err != nil {
		t.Fatalf("redeem: %v", err)
	}
	if res.Transfer != chain.ByParty("alice") {
		t.Errorf("transfer = %v, want alice", res.Transfer)
	}
	ev, ok := res.Event.(*RedeemedEvent)
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
	if res.Transfer != chain.ByParty("carol") {
		t.Errorf("transfer = %v, want carol", res.Transfer)
	}
}

// TestHTLCNotesKeepTheFmtLayout pins the ledger notes an HTLC's methods
// return to the fmt layouts they were first written with, as
// TestResultNotesKeepTheFmtLayout does for a Swap's: the hosting chain
// hashes the note into its record chain.
func TestHTLCNotesKeepTheFmtLayout(t *testing.T) {
	h, secret := newHTLC(t)
	res, err := h.Invoke(call(MethodRedeem, "alice", 150, RedeemArgs{Secret: secret}))
	if err != nil {
		t.Fatalf("redeem: %v", err)
	}
	if want := fmt.Sprintf("arc %d redeemed by %s", 3, chain.PartyID("alice")); res.Note != want || want != "arc 3 redeemed by alice" {
		t.Errorf("redeem note %q, fmt layout %q", res.Note, want)
	}
	// A counterparty name past the contract's inline note buffer spells
	// the same layout from the heap.
	long := chain.PartyID("a-counterparty-name-longer-than-the-buffer")
	lh, err := NewHTLC(HTLCParams{ID: "h2", ArcID: 12, Lock: secret.Lock(), Timeout: 160,
		Party: "carol", Counter: long, Asset: "title"})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		res, err = lh.Invoke(call(MethodRedeem, long, 150, &RedeemArgs{Secret: secret}))
		if err != nil {
			t.Fatalf("redeem: %v", err)
		}
		if want := fmt.Sprintf("arc %d redeemed by %s", 12, long); res.Note != want {
			t.Errorf("long redeem note %q, fmt layout %q", res.Note, want)
		}
	}
	h, _ = newHTLC(t)
	res, err = h.Invoke(call(MethodRefund, "carol", 160, nil))
	if err != nil {
		t.Fatalf("refund: %v", err)
	}
	if want := fmt.Sprintf("arc %d refunded to %s", 3, chain.PartyID("carol")); res.Note != want || want != "arc 3 refunded to carol" {
		t.Errorf("refund note %q, fmt layout %q", res.Note, want)
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

// TestHTLCRedeemAllocatesNothing: on a warm chain a classic HTLC's
// redeem through Chain.Invoke allocates no heap object — the argument is
// a buffer passed by pointer, the transfer travels by value, and the note
// and the event are the contract's own.
func TestHTLCRedeemAllocatesNothing(t *testing.T) {
	secret, _ := hashkey.NewSecret(rand.New(rand.NewSource(26)))
	ch := chain.New("title", vtime.ClockFunc(func() vtime.Ticks { return 150 }))
	const warm, runs = 600, 100
	ids := make([]chain.ContractID, warm+runs+1)
	for i := range ids {
		asset := chain.AssetID(fmt.Sprintf("car-%d", i))
		ids[i] = chain.ContractID(fmt.Sprintf("h-%d", i))
		if err := ch.RegisterAsset(chain.Asset{ID: asset}, "carol"); err != nil {
			t.Fatal(err)
		}
		h, err := NewHTLC(HTLCParams{ID: ids[i], ArcID: 2, Lock: secret.Lock(), Timeout: 160,
			Party: "carol", Counter: "alice", Asset: asset})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.PublishContract("carol", h); err != nil {
			t.Fatal(err)
		}
	}
	args := &RedeemArgs{Secret: secret}
	redeem := func(i int) {
		if err := ch.Invoke("alice", ids[i], MethodRedeem, args, args.WireSize()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		redeem(i)
	}
	next := warm
	if got := testing.AllocsPerRun(runs, func() { redeem(next); next++ }); got != 0 {
		t.Errorf("a warm redeem allocated %.0f objects", got)
	}
	recs := ch.Records()
	if got := recs[len(recs)-2].Note; got != "redeem: arc 2 redeemed by alice" {
		t.Errorf("redeem record note %q", got)
	}
	if !ch.VerifyLedger() {
		t.Error("ledger does not verify")
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
// fresh one) settles it again. The redeem's argument is a buffer the caller
// overwrites as soon as the call returns, so the re-apply must run on the
// chain's own copy; and the re-applied redeem emits a fresh event, leaving
// the first one as it was emitted.
func TestHTLCRevertThenRedeemAgain(t *testing.T) {
	secret, _ := hashkey.NewSecret(rand.New(rand.NewSource(25)))
	clk := &tickClock{now: 100}
	ch := chain.New("title", clk)
	if err := ch.SetCommitmentModel(revertRedeem{}, func(vtime.Ticks) {}); err != nil {
		t.Fatal(err)
	}
	var events []*RedeemedEvent
	ch.Subscribe("test", func(n chain.Notification) {
		if ev, ok := n.Event.(*RedeemedEvent); ok {
			events = append(events, ev)
		}
	})
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
	args := &RedeemArgs{Secret: secret}
	if err := ch.Invoke("alice", "t", MethodRedeem, args, args.WireSize()); err != nil {
		t.Fatalf("redeem: %v", err)
	}
	*args = RedeemArgs{} // the buffer's next use
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
	if len(events) != 2 || events[0] == events[1] {
		t.Fatalf("events %v, want two distinct", events)
	}
	for i, ev := range events {
		if ev.ArcID != 2 || ev.Secret != secret {
			t.Errorf("event %d reads %+v after the re-apply", i, *ev)
		}
	}
	if owner, _ := ch.OwnerOf("cadillac"); owner != chain.ByParty("alice") {
		t.Errorf("owner = %v, want alice", owner)
	}
	if !ch.VerifyLedger() {
		t.Error("hash chain broken after revert")
	}
}
