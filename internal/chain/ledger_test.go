package chain

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// fillLedger appends n data records to a fresh chain, the tick advancing
// by one per record.
func fillLedger(n int) *Chain {
	clk := &movClock{}
	c := New("fill", clk)
	for i := 0; i < n; i++ {
		clk.now = vtime.Ticks(i)
		c.PublishData(PartyID(fmt.Sprintf("p%d", i%7)), fmt.Sprintf("note %d", i), nil, i%13)
	}
	return c
}

// TestLedgerChunkBoundaries fills ledgers to one under, exactly, and one
// over a chunk (and over two): Records returns every record once and in
// order, each hash is the fmt layout's hash over its predecessor's — so a
// chunk boundary changes no byte of any hash — and the ledger verifies.
func TestLedgerChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, ledgerChunk - 1, ledgerChunk, ledgerChunk + 1, 2*ledgerChunk + 1} {
		c := fillLedger(n)
		recs := c.Records()
		if len(recs) != n {
			t.Fatalf("n=%d: Records returned %d", n, len(recs))
		}
		var prev [32]byte
		for i, r := range recs {
			if r.Seq != i || r.At != vtime.Ticks(i) || r.Note != fmt.Sprintf("note %d", i) {
				t.Fatalf("n=%d: record %d is %+v", n, i, r)
			}
			want := sha256.Sum256(append(prev[:], fmt.Sprintf("%d|%d|%d|%s|%s|%d|%s",
				r.Seq, int64(r.At), int(r.Kind), r.Contract, r.Sender, r.Size, r.Note)...))
			if r.PrevHash != prev || r.Hash != want {
				t.Fatalf("n=%d: record %d breaks the hash chain", n, i)
			}
			prev = r.Hash
		}
		if !c.VerifyLedger() {
			t.Fatalf("n=%d: ledger does not verify", n)
		}
		if want := (n + ledgerChunk - 1) / ledgerChunk; len(c.ledger.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(c.ledger.chunks), want)
		}
	}
	// The head hash of the chunk+1 ledger, as the append-grown slice of the
	// commit before this one produced it.
	recs := fillLedger(ledgerChunk + 1).Records()
	const parentHead = "bb2641a2402c867a249dbdf6467b1206858e47c4467a3cc867cc86730486a3ce"
	if got := hex.EncodeToString(recs[ledgerChunk].Hash[:]); got != parentHead {
		t.Errorf("head hash %s, the parent commit wrote %s", got, parentHead)
	}
}

// TestLedgerVerifyCatchesTamperingAcrossChunks: a record altered in a full
// chunk, or in the one still filling, fails verification.
func TestLedgerVerifyCatchesTamperingAcrossChunks(t *testing.T) {
	for _, at := range []int{3, ledgerChunk - 1, ledgerChunk, ledgerChunk + 5} {
		c := fillLedger(ledgerChunk + 9)
		c.ledger.chunks[at/ledgerChunk][at%ledgerChunk].Note = "evil"
		if c.VerifyLedger() {
			t.Errorf("tampered record %d went unnoticed", at)
		}
	}
}

// TestRevertAcrossChunkBoundary: a revert whose rolled-back records sit in
// one chunk while its NoteReverted records land in the next keeps the
// pre-revert prefix byte-for-byte, tracks the right records (the tracked
// record is the ledger's last, wherever that is), and leaves a ledger that
// verifies.
func TestRevertAcrossChunkBoundary(t *testing.T) {
	clk := &movClock{}
	c := New("eth", clk)
	if err := c.SetCommitmentModel(revertOnce{}, func(vtime.Ticks) {}); err != nil {
		t.Fatalf("SetCommitmentModel: %v", err)
	}
	mustRegister(t, c, "coin", "alice")
	// Pad so that publish + bump + take (4 records) end exactly on the
	// chunk boundary: the revert's records open the next chunk.
	for c.ledger.n < ledgerChunk-4 {
		c.PublishData("pad", "pad", nil, 1)
	}
	rc := &revContract{fakeContract: fakeContract{
		id: "rc", party: "alice", asset: "coin", size: 32, target: ByParty("bob"),
	}}
	if err := c.PublishContract("alice", rc); err != nil {
		t.Fatalf("PublishContract: %v", err)
	}
	clk.now = 1
	if err := c.Invoke("alice", "rc", "bump", nil, 8); err != nil {
		t.Fatalf("Invoke(bump): %v", err)
	}
	clk.now = 2
	if err := c.Invoke("alice", "rc", "take", nil, 8); err != nil {
		t.Fatalf("Invoke(take): %v", err)
	}
	pre := c.Records()
	if len(pre) != ledgerChunk {
		t.Fatalf("setup: %d records before the revert, want exactly one chunk (%d)", len(pre), ledgerChunk)
	}

	clk.now = 3
	c.SettleCommitments(3)
	recs := c.Records()
	if got := countKind(recs, NoteReverted); got != 3 {
		t.Fatalf("reverted records = %d, want 3 (bump + take pair)", got)
	}
	if len(c.ledger.chunks) != 2 {
		t.Fatalf("%d chunks after the revert, want 2", len(c.ledger.chunks))
	}
	if !reflect.DeepEqual(recs[:len(pre)], pre) {
		t.Fatal("revert rewrote ledger history; pre-revert prefix changed")
	}
	for i, seq := range []int{ledgerChunk - 3, ledgerChunk - 2, ledgerChunk - 1} {
		if want := fmt.Sprintf("revert %s seq %d", recs[seq].Kind, seq); recs[ledgerChunk+i].Note != want {
			t.Errorf("revert record %d notes %q, want %q", i, recs[ledgerChunk+i].Note, want)
		}
	}
	if !c.VerifyLedger() {
		t.Fatal("hash chain broken after a revert across the chunk boundary")
	}
	for clk.now < 10 {
		clk.now++
		c.SettleCommitments(clk.now)
	}
	if n := c.PendingCommitments(); n != 0 {
		t.Fatalf("pending commitments after drain = %d, want 0", n)
	}
	if owner, _ := c.OwnerOf("coin"); owner != ByParty("bob") || rc.count != 2 {
		t.Fatalf("after re-apply: owner %v count %d, want bob and 2", owner, rc.count)
	}
	if !c.VerifyLedger() {
		t.Fatal("hash chain broken after re-apply")
	}
}

// noteSink collects routed notifications.
type noteSink struct{ got []Notification }

func (s *noteSink) OnNote(n Notification) { s.got = append(s.got, n) }

// TestContractRoutes: a route sees exactly its contract's records, in
// order; a second subscriber replaces the first; unsubscribing with a
// stale observer leaves the current route alone.
func TestContractRoutes(t *testing.T) {
	c := newTestChain()
	mustRegister(t, c, "coin", "alice")
	mustRegister(t, c, "gem", "carol")
	var mine, other, late noteSink
	c.SubscribeContract("s", &mine)
	c.SubscribeContract("e", &other)
	if err := c.PublishContract("alice", &fakeContract{id: "s", party: "alice", asset: "coin", target: ByParty("bob")}); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishContract("carol", &fakeContract{id: "e", party: "carol", asset: "gem", target: ByParty("dave")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Invoke("bob", "s", "take", nil, 0); err != nil {
		t.Fatal(err)
	}
	kinds := func(notes []Notification) (out []NoteKind) {
		for _, n := range notes {
			if n.Contract == "" {
				t.Errorf("routed a note without a contract: %+v", n)
			}
			out = append(out, n.Kind)
		}
		return out
	}
	if got := kinds(mine.got); !reflect.DeepEqual(got, []NoteKind{NoteContractPublished, NoteInvocation, NoteTransfer}) {
		t.Errorf("route for s saw %v", got)
	}
	if got := kinds(other.got); !reflect.DeepEqual(got, []NoteKind{NoteContractPublished}) {
		t.Errorf("route for e saw %v", got)
	}

	c.SubscribeContract("e", &late)
	c.UnsubscribeContract("e", &other) // stale: must not remove late's route
	if err := c.Invoke("dave", "e", "take", nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(other.got) != 1 || len(late.got) != 2 {
		t.Errorf("after replacement: old route saw %d notes (want 1), new saw %d (want 2)", len(other.got), len(late.got))
	}
	c.UnsubscribeContract("e", &late)
	c.UnsubscribeContract("s", &mine)
	if len(c.routes) != 0 {
		t.Errorf("%d routes left after unsubscribing all", len(c.routes))
	}
}
