package chain

import (
	"errors"
	"fmt"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// fakeContract is a minimal contract for exercising the chain: method
// "take" transfers the asset to the configured target, "noop" records an
// invocation, "fail" always errors.
type fakeContract struct {
	id     ContractID
	party  PartyID
	asset  AssetID
	size   int
	target Owner
	calls  []Call
}

func (f *fakeContract) ContractID() ContractID { return f.id }
func (f *fakeContract) Party() PartyID         { return f.party }
func (f *fakeContract) AssetID() AssetID       { return f.asset }
func (f *fakeContract) StorageSize() int       { return f.size }

var errFake = errors.New("fake failure")

func (f *fakeContract) Invoke(call Call) (Result, error) {
	f.calls = append(f.calls, call)
	switch call.Method {
	case "take":
		t := f.target
		return Result{Transfer: &t, Note: "taken", Event: call.Args}, nil
	case "noop":
		return Result{Note: "noop"}, nil
	default:
		return Result{}, errFake
	}
}

type fixedClock vtime.Ticks

func (f fixedClock) Now() vtime.Ticks { return vtime.Ticks(f) }

func newTestChain() *Chain { return New("test", fixedClock(100)) }

func TestRegisterAndOwnership(t *testing.T) {
	c := newTestChain()
	if err := c.RegisterAsset(Asset{ID: "coin", Amount: 5}, "alice"); err != nil {
		t.Fatalf("RegisterAsset: %v", err)
	}
	owner, ok := c.OwnerOf("coin")
	if !ok || owner != ByParty("alice") {
		t.Errorf("OwnerOf = (%v, %v), want alice", owner, ok)
	}
	if err := c.RegisterAsset(Asset{ID: "coin"}, "bob"); !errors.Is(err, ErrDuplicateAsset) {
		t.Errorf("duplicate register err = %v, want ErrDuplicateAsset", err)
	}
	if _, ok := c.Asset("coin"); !ok {
		t.Error("Asset(coin) should exist")
	}
	if _, ok := c.OwnerOf("ghost"); ok {
		t.Error("unregistered asset should have no owner")
	}
}

func TestPublishContractEscrows(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	fc := &fakeContract{id: "swap1", party: "alice", asset: "coin", size: 64, target: ByParty("bob")}
	if err := c.PublishContract("alice", fc); err != nil {
		t.Fatalf("PublishContract: %v", err)
	}
	owner, _ := c.OwnerOf("coin")
	if owner != ByEscrow("swap1") {
		t.Errorf("asset owner = %v, want escrow:swap1", owner)
	}
	if got, ok := c.Contract("swap1"); !ok || got != Contract(fc) {
		t.Error("Contract(swap1) lookup failed")
	}
	if c.StorageBytes() < 64 {
		t.Errorf("StorageBytes = %d, want at least the contract size", c.StorageBytes())
	}
}

func TestPublishContractRejections(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	tests := []struct {
		name     string
		sender   PartyID
		contract *fakeContract
		want     error
	}{
		{
			name:     "sender does not own asset",
			sender:   "bob",
			contract: &fakeContract{id: "x", party: "bob", asset: "coin"},
			want:     ErrNotOwner,
		},
		{
			name:     "contract names a different party",
			sender:   "alice",
			contract: &fakeContract{id: "x", party: "bob", asset: "coin"},
			want:     ErrNotOwner,
		},
		{
			name:     "unregistered asset",
			sender:   "alice",
			contract: &fakeContract{id: "x", party: "alice", asset: "ghost"},
			want:     ErrContractAssetGap,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := c.PublishContract(tt.sender, tt.contract); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}

	// Duplicate ID.
	ok := &fakeContract{id: "dup", party: "alice", asset: "coin"}
	if err := c.PublishContract("alice", ok); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	mustRegister(t, c, "coin2", "alice")
	dup := &fakeContract{id: "dup", party: "alice", asset: "coin2"}
	if err := c.PublishContract("alice", dup); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate publish err = %v, want ErrDuplicateID", err)
	}
}

func TestEscrowedAssetCannotBeReEscrowed(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	first := &fakeContract{id: "one", party: "alice", asset: "coin"}
	if err := c.PublishContract("alice", first); err != nil {
		t.Fatalf("publish: %v", err)
	}
	second := &fakeContract{id: "two", party: "alice", asset: "coin"}
	if err := c.PublishContract("alice", second); !errors.Is(err, ErrNotOwner) {
		t.Errorf("re-escrow err = %v, want ErrNotOwner", err)
	}
}

func TestInvokeTransfersAndCloses(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	fc := &fakeContract{id: "s", party: "alice", asset: "coin", target: ByParty("bob")}
	if err := c.PublishContract("alice", fc); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := c.Invoke("bob", "s", "take", "payload", 11); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	owner, _ := c.OwnerOf("coin")
	if owner != ByParty("bob") {
		t.Errorf("owner after take = %v, want bob", owner)
	}
	if !c.Closed("s") {
		t.Error("contract should be closed after transfer")
	}
	// Further invokes are rejected.
	if err := c.Invoke("bob", "s", "take", nil, 0); !errors.Is(err, ErrContractClosed) {
		t.Errorf("invoke on closed err = %v, want ErrContractClosed", err)
	}
	// The contract saw the chain clock, not a caller-supplied time.
	if fc.calls[0].Now != 100 {
		t.Errorf("contract saw now=%d, want chain clock 100", fc.calls[0].Now)
	}
}

func TestInvokeErrorsRevert(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	fc := &fakeContract{id: "s", party: "alice", asset: "coin"}
	if err := c.PublishContract("alice", fc); err != nil {
		t.Fatalf("publish: %v", err)
	}
	before := len(c.Records())
	storage := c.StorageBytes()
	if err := c.Invoke("bob", "s", "fail", nil, 99); !errors.Is(err, errFake) {
		t.Fatalf("Invoke err = %v, want errFake", err)
	}
	if len(c.Records()) != before {
		t.Error("failed invoke must not append records")
	}
	if c.StorageBytes() != storage {
		t.Error("failed invoke must not charge storage")
	}
	if err := c.Invoke("x", "ghost", "noop", nil, 0); !errors.Is(err, ErrUnknownContract) {
		t.Errorf("unknown contract err = %v, want ErrUnknownContract", err)
	}
}

func TestObserverNotifications(t *testing.T) {
	c := newTestChain()
	var notes []Notification
	c.SetObserver(func(n Notification) { notes = append(notes, n) })
	mustRegister(t, c, "coin", "alice")
	fc := &fakeContract{id: "s", party: "alice", asset: "coin", target: ByParty("bob")}
	if err := c.PublishContract("alice", fc); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := c.Invoke("bob", "s", "take", "the-hashkey", 3); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	kinds := make([]NoteKind, 0, len(notes))
	for _, n := range notes {
		kinds = append(kinds, n.Kind)
	}
	want := []NoteKind{NoteAssetRegistered, NoteContractPublished, NoteInvocation, NoteTransfer}
	if len(kinds) != len(want) {
		t.Fatalf("notifications = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("notification %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// The publish notification carries the contract; the invocation event
	// carries the call payload.
	if notes[1].Event != Contract(fc) {
		t.Error("publish notification should carry the contract")
	}
	if notes[2].Event != any("the-hashkey") {
		t.Errorf("invoke notification event = %v, want the call payload", notes[2].Event)
	}
}

func TestPublishData(t *testing.T) {
	c := newTestChain()
	var got []Notification
	c.SetObserver(func(n Notification) { got = append(got, n) })
	c.PublishData("market", "plan", []int{1, 2}, 42)
	if len(got) != 1 || got[0].Kind != NoteData {
		t.Fatalf("notifications = %+v, want one NoteData", got)
	}
	if c.StorageBytes() != 42 {
		t.Errorf("StorageBytes = %d, want 42", c.StorageBytes())
	}
}

func TestLedgerHashChain(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	c.PublishData("x", "note", nil, 1)
	if !c.VerifyLedger() {
		t.Error("fresh ledger should verify")
	}
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[1].PrevHash != recs[0].Hash {
		t.Error("records not hash-chained")
	}
	// Tampering with a copy must not affect the chain.
	recs[0].Note = "evil"
	if !c.VerifyLedger() {
		t.Error("Records() should return a defensive copy")
	}
}

// TestRecordNotesKeepTheFmtLayout pins the notes the chain itself writes
// to the fmt layouts they were first written with. hashRecord covers the
// note, so these bytes are part of every persisted ledger hash.
func TestRecordNotesKeepTheFmtLayout(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	mustRegister(t, c, "gem", "alice")
	fc := &fakeContract{id: "s", party: "alice", asset: "coin", target: ByParty("bob")}
	if err := c.PublishContract("alice", fc); err != nil {
		t.Fatal(err)
	}
	if err := c.Invoke("bob", "s", "take", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Transfer("alice", "gem", "carol"); err != nil {
		t.Fatal(err)
	}
	escrow := &fakeContract{id: "e", party: "carol", asset: "gem", target: ByEscrow("vault")}
	if err := c.PublishContract("carol", escrow); err != nil {
		t.Fatal(err)
	}
	if err := c.Invoke("dave", "e", "take", nil, 0); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("asset %s -> %s", AssetID("coin"), PartyID("alice")),
		fmt.Sprintf("asset %s -> %s", AssetID("gem"), PartyID("alice")),
		fmt.Sprintf("escrow %s", AssetID("coin")),
		"take: taken",
		fmt.Sprintf("asset %s -> %s", AssetID("coin"), ByParty("bob")),
		fmt.Sprintf("asset %s -> %s", AssetID("gem"), PartyID("carol")),
		fmt.Sprintf("escrow %s", AssetID("gem")),
		"take: taken",
		fmt.Sprintf("asset %s -> %s", AssetID("gem"), ByEscrow("vault")),
	}
	recs := c.Records()
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Note != want[i] {
			t.Errorf("record %d note %q, fmt layout %q", i, r.Note, want[i])
		}
	}
	if want[4] != "asset coin -> party:bob" || want[8] != "asset gem -> escrow:vault" {
		t.Errorf("fmt layouts drifted: %q, %q", want[4], want[8])
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	snap := c.Snapshot()
	snap["coin"] = ByParty("mallory")
	owner, _ := c.OwnerOf("coin")
	if owner != ByParty("alice") {
		t.Error("Snapshot should be a copy")
	}
}

func TestOwnerString(t *testing.T) {
	if ByParty("a").String() != "party:a" {
		t.Error("party owner string")
	}
	if ByEscrow("c").String() != "escrow:c" {
		t.Error("escrow owner string")
	}
	if (Owner{}).String() != "owner(unset)" {
		t.Error("zero owner string")
	}
}

func TestNoteKindString(t *testing.T) {
	if NoteContractPublished.String() != "contract-published" {
		t.Error("NoteContractPublished name")
	}
	if NoteKind(99).String() != "note(99)" {
		t.Error("unknown kind fallback")
	}
}

func mustRegister(t *testing.T, c *Chain, id AssetID, owner PartyID) {
	t.Helper()
	if err := c.RegisterAsset(Asset{ID: id, Amount: 1}, owner); err != nil {
		t.Fatalf("RegisterAsset(%s): %v", id, err)
	}
}
