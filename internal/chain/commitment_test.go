package chain

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// movClock is a manually advanced clock for driving commitment ticks.
type movClock struct{ now vtime.Ticks }

func (m *movClock) Now() vtime.Ticks { return m.now }

// revContract is fakeContract plus snapshot/restore over a bump counter —
// the minimal RevertibleContract. Method "bump" increments the counter,
// "take" increments and transfers the asset to the configured target.
type revContract struct {
	fakeContract
	count int
}

func (r *revContract) Invoke(call Call) (Result, error) {
	switch call.Method {
	case "bump":
		r.count++
		return Result{Note: fmt.Sprintf("bump=%d", r.count)}, nil
	case "take":
		r.count++
		return Result{Transfer: r.target, Note: "taken"}, nil
	}
	return Result{}, errFake
}

func (r *revContract) StateSnapshot() any { return r.count }
func (r *revContract) StateRestore(s any) { r.count = s.(int) }

// driveCommitmentChain runs a fixed scripted workload — six contracts,
// each published then bumped then claimed on consecutive ticks — against
// the given commitment model, pumping SettleCommitments at every tick so
// fates mature on schedule, then drains until the chain quiesces.
func driveCommitmentChain(t *testing.T, model CommitmentModel) *Chain {
	t.Helper()
	clk := &movClock{}
	c := New("btc", clk)
	if err := c.SetCommitmentModel(model, func(vtime.Ticks) {}); err != nil {
		t.Fatalf("SetCommitmentModel: %v", err)
	}
	const parties = 6
	for i := 0; i < parties; i++ {
		owner := PartyID(fmt.Sprintf("p%d", i))
		asset := AssetID(fmt.Sprintf("coin%d", i))
		if err := c.RegisterAsset(Asset{ID: asset, Amount: 1}, owner); err != nil {
			t.Fatalf("RegisterAsset(%s): %v", asset, err)
		}
	}
	step := func() {
		clk.now++
		c.SettleCommitments(clk.now)
	}
	for i := 0; i < parties; i++ {
		owner := PartyID(fmt.Sprintf("p%d", i))
		id := ContractID(fmt.Sprintf("rc%d", i))
		rc := &revContract{fakeContract: fakeContract{
			id: id, party: owner, asset: AssetID(fmt.Sprintf("coin%d", i)),
			size: 32, target: ByParty("taker"),
		}}
		if err := c.PublishContract(owner, rc); err != nil {
			t.Fatalf("PublishContract(%s): %v", id, err)
		}
		// The scripted invocations may race a reorg that has (for now)
		// dropped the contract off the chain; the error is as seeded and
		// replay-stable as a success, so it stays in the stream.
		step()
		_ = c.Invoke(owner, id, "bump", nil, 8)
		step()
		_ = c.Invoke(owner, id, "take", nil, 8)
		step()
	}
	// Re-applied records draw fresh fates and may revert again; the seed
	// decides when the chain quiesces, and 512 extra ticks is far beyond
	// any plausible revert cascade for a six-contract script.
	for i := 0; i < 512; i++ {
		step()
	}
	if n := c.PendingCommitments(); n != 0 {
		t.Fatalf("chain did not quiesce: %d commitments still pending", n)
	}
	return c
}

func countKind(recs []Record, kind NoteKind) int {
	n := 0
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// TestReorgReplayByteIdentical is the chain-level determinism witness:
// the same seeded Reorg model replays a byte-identical record stream —
// hashes included — while a different seed diverges. Run under
// -count=2 -race like the suite-level digest tests.
func TestReorgReplayByteIdentical(t *testing.T) {
	model := Reorg{K: 4, Rate: 0.5, Seed: 42}
	a := driveCommitmentChain(t, model)
	b := driveCommitmentChain(t, model)
	ra, rb := a.Records(), b.Records()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("same seed produced different record streams: %d vs %d records", len(ra), len(rb))
	}
	if n := countKind(ra, NoteReverted); n == 0 {
		t.Fatal("seeded Reorg at rate 0.5 produced no reverts; the model is not firing")
	}
	if !a.VerifyLedger() || !b.VerifyLedger() {
		t.Fatal("hash chain broken after reorg replay")
	}
	other := driveCommitmentChain(t, Reorg{K: 4, Rate: 0.5, Seed: 43})
	if reflect.DeepEqual(ra, other.Records()) {
		t.Error("different seed replayed an identical record stream; fates ignore the seed")
	}
}

// revertOnce is a scripted model: the contract's second fated record
// (idx 1, the bump) reverts at depth 2; everything else finalizes at
// depth 4. It makes the revert path deterministic without probability.
type revertOnce struct{}

func (revertOnce) Name() string   { return "revert-once" }
func (revertOnce) Timing() Timing { return Timing{ConfirmDepth: 4} }
func (revertOnce) Fate(_ string, _ ContractID, idx int) Fate {
	f := Fate{FinalAfter: 4}
	if idx == 1 {
		f.RevertAfter = 2
	}
	return f
}

// TestRevertKeepsHashChainIntact pins the append-only reorg semantics: a
// revert never rewrites history — the pre-revert record prefix survives
// byte-for-byte, NoteReverted records are appended above it, the hash
// chain still verifies, and the reverted operations re-apply so the
// contract ends in the state a revert-free run would have reached.
func TestRevertKeepsHashChainIntact(t *testing.T) {
	clk := &movClock{}
	c := New("eth", clk)
	if err := c.SetCommitmentModel(revertOnce{}, func(vtime.Ticks) {}); err != nil {
		t.Fatalf("SetCommitmentModel: %v", err)
	}
	mustRegister(t, c, "coin", "alice")
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

	// The bump's revert is due at tick 3 (applied tick 1, depth 2) and
	// takes the claim above it in the same cut: three records go — the
	// bump, plus the take's invocation-and-transfer pair (one shared
	// fate, never split).
	clk.now = 3
	c.SettleCommitments(3)
	recs := c.Records()
	if got := countKind(recs, NoteReverted); got != 3 {
		t.Fatalf("reverted records = %d, want 3 (bump + take pair)", got)
	}
	if len(recs) < len(pre) || !reflect.DeepEqual(recs[:len(pre)], pre) {
		t.Fatal("revert rewrote ledger history; pre-revert prefix changed")
	}
	if !c.VerifyLedger() {
		t.Fatal("hash chain broken after revert")
	}
	if rc.count != 0 {
		t.Fatalf("contract state after revert = %d, want 0 (both invocations rolled back)", rc.count)
	}
	if owner, _ := c.OwnerOf("coin"); owner != ByEscrow("rc") {
		t.Fatalf("asset owner after revert = %v, want back in escrow", owner)
	}

	// Re-applies land at tick 4 and finalize by tick 8.
	for clk.now < 10 {
		clk.now++
		c.SettleCommitments(clk.now)
	}
	if n := c.PendingCommitments(); n != 0 {
		t.Fatalf("pending commitments after drain = %d, want 0", n)
	}
	if rc.count != 2 {
		t.Fatalf("contract state after re-apply = %d, want 2", rc.count)
	}
	if owner, _ := c.OwnerOf("coin"); owner != ByParty("bob") {
		t.Fatalf("asset owner after re-apply = %v, want bob", owner)
	}
	if !c.VerifyLedger() {
		t.Fatal("hash chain broken after re-apply")
	}
}

// TestDepthFinalityNotifications pins the Depth model's two-phase
// notification contract: records arrive Provisional, a transfer gets
// exactly one NoteFinalized exactly K ticks after application, and the
// pending set drains to zero once everything is final.
func TestDepthFinalityNotifications(t *testing.T) {
	clk := &movClock{}
	c := New("sol", clk)
	if err := c.SetCommitmentModel(Depth{K: 3}, func(vtime.Ticks) {}); err != nil {
		t.Fatalf("SetCommitmentModel: %v", err)
	}
	mustRegister(t, c, "coin", "alice")
	var notes []Notification
	c.Subscribe("test", func(n Notification) { notes = append(notes, n) })
	rc := &revContract{fakeContract: fakeContract{
		id: "d1", party: "alice", asset: "coin", size: 16, target: ByParty("bob"),
	}}
	if err := c.PublishContract("alice", rc); err != nil {
		t.Fatalf("PublishContract: %v", err)
	}
	clk.now = 1
	if err := c.Invoke("alice", "d1", "take", nil, 8); err != nil {
		t.Fatalf("Invoke(take): %v", err)
	}
	for _, n := range notes {
		if !n.Provisional {
			t.Errorf("%s notification not provisional under Depth{K:3}", n.Kind)
		}
	}
	// Transfer applied at tick 1: nothing final before tick 4.
	for clk.now < 3 {
		clk.now++
		c.SettleCommitments(clk.now)
	}
	if got := finalizedCount(notes, "d1"); got != 0 {
		t.Fatalf("finalized notifications before depth K = %d, want 0", got)
	}
	if c.PendingCommitments() == 0 {
		t.Fatal("pending commitments drained before depth K")
	}
	clk.now = 4
	c.SettleCommitments(4)
	if got := finalizedCount(notes, "d1"); got != 1 {
		t.Fatalf("finalized notifications at depth K = %d, want exactly 1", got)
	}
	for _, n := range notes {
		if n.Kind == NoteFinalized && n.At != 4 {
			t.Errorf("NoteFinalized at tick %d, want 4 (applied 1 + K 3)", n.At)
		}
	}
	if n := c.PendingCommitments(); n != 0 {
		t.Fatalf("pending commitments after finality = %d, want 0", n)
	}
}

func finalizedCount(notes []Notification, id ContractID) int {
	n := 0
	for _, note := range notes {
		if note.Kind == NoteFinalized && note.Contract == id {
			n++
		}
	}
	return n
}

// TestFatePurity pins the determinism contract on the model itself:
// Fate is a pure function of (seed, chain, contract, index) — repeated
// calls and call order cannot change a draw.
func TestFatePurity(t *testing.T) {
	m := Reorg{K: 6, Rate: 0.4, Seed: 7}
	forward := make([]Fate, 32)
	for i := range forward {
		forward[i] = m.Fate("btc", "c1", i)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := m.Fate("btc", "c1", i); got != forward[i] {
			t.Fatalf("Fate(btc, c1, %d) = %+v on re-draw, want %+v", i, got, forward[i])
		}
	}
	if m.Fate("btc", "c1", 0) == m.Fate("eth", "c1", 0) &&
		m.Fate("btc", "c1", 1) == m.Fate("eth", "c1", 1) &&
		m.Fate("btc", "c1", 2) == m.Fate("eth", "c1", 2) {
		t.Error("fates identical across chains for three straight draws; chain name ignored")
	}
	for i := 0; i < 64; i++ {
		f := m.Fate("btc", "c2", i)
		if f.FinalAfter != m.K {
			t.Fatalf("Fate idx %d: FinalAfter = %d, want K=%d", i, f.FinalAfter, m.K)
		}
		if f.RevertAfter < 0 || f.RevertAfter >= f.FinalAfter {
			t.Fatalf("Fate idx %d: RevertAfter = %d out of [0, K)", i, f.RevertAfter)
		}
	}
}

// reusedArgs is a call argument in a buffer its caller reuses once Invoke
// returns.
type reusedArgs struct{ v int }

func (a *reusedArgs) Own() any { return *a }

// argsRecorder is a revContract that records the arguments of its calls.
type argsRecorder struct {
	revContract
	args []any
}

func (r *argsRecorder) Invoke(call Call) (Result, error) {
	r.args = append(r.args, call.Args)
	return r.revContract.Invoke(call)
}

// revertFirstCall reverts a contract's first invocation two ticks after it
// applies; every other record is final at once.
type revertFirstCall struct{}

func (revertFirstCall) Name() string   { return "revert-first-call" }
func (revertFirstCall) Timing() Timing { return Timing{ConfirmDepth: 4} }
func (revertFirstCall) Fate(_ string, _ ContractID, idx int) Fate {
	if idx == 1 {
		return Fate{FinalAfter: 4, RevertAfter: 2}
	}
	return Fate{}
}

// TestUndoLogOwnsReusedArgs pins the rule that lets a caller reuse its
// argument buffer: a fated invocation's undo log keeps ReusedArgs.Own's
// value, so the call a revert re-applies carries the arguments it was
// made with, whatever the caller has written into its buffer since.
func TestUndoLogOwnsReusedArgs(t *testing.T) {
	clk := &movClock{}
	c := New("btc", clk)
	if err := c.SetCommitmentModel(revertFirstCall{}, func(vtime.Ticks) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAsset(Asset{ID: "coin", Amount: 1}, "p"); err != nil {
		t.Fatal(err)
	}
	rc := &argsRecorder{revContract: revContract{fakeContract: fakeContract{
		id: "rc", party: "p", asset: "coin", size: 32, target: ByParty("taker"),
	}}}
	if err := c.PublishContract("p", rc); err != nil {
		t.Fatal(err)
	}
	buf := &reusedArgs{v: 1}
	if err := c.Invoke("p", "rc", "bump", buf, 8); err != nil {
		t.Fatal(err)
	}
	buf.v = 99 // the caller's next call
	for clk.now < 4 {
		clk.now++
		c.SettleCommitments(clk.now)
	}
	if len(rc.args) != 2 || rc.args[0] != any(buf) {
		t.Fatalf("contract saw %v, want the call and its re-application", rc.args)
	}
	if got, ok := rc.args[1].(reusedArgs); !ok || got.v != 1 {
		t.Errorf("re-applied call carried %#v, want the owned reusedArgs{v: 1}", rc.args[1])
	}
	if rc.count != 1 {
		t.Errorf("bump count %d after revert and re-apply, want 1", rc.count)
	}
}
