package htlc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// bench is a ready-made Figure-1 three-cycle with Alice as the single
// leader, Δ = 10, start = 100, diam = 2.
type bench struct {
	d       *digraph.Digraph
	signers []*hashkey.Signer
	dir     hashkey.Directory
	secret  hashkey.Secret
	lock    hashkey.Lock
}

const (
	benchStart vtime.Ticks    = 100
	benchDelta vtime.Duration = 10
	benchDiam                 = 2
)

func newBench(t *testing.T) *bench {
	t.Helper()
	d := digraph.New()
	a := d.AddVertex("Alice")
	b := d.AddVertex("Bob")
	c := d.AddVertex("Carol")
	d.MustAddArc(a, b) // arc 0: alt-coin
	d.MustAddArc(b, c) // arc 1: bitcoin
	d.MustAddArc(c, a) // arc 2: title
	r := rand.New(rand.NewSource(9))
	signers := make([]*hashkey.Signer, 3)
	for i := range signers {
		s, err := hashkey.NewSigner(digraph.Vertex(i), r)
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		signers[i] = s
	}
	secret, err := hashkey.NewSecret(r)
	if err != nil {
		t.Fatalf("NewSecret: %v", err)
	}
	return &bench{
		d:       d,
		signers: signers,
		dir:     hashkey.NewDirectory(signers...),
		secret:  secret,
		lock:    secret.Lock(),
	}
}

// arc0Params returns the contract params for arc 0 (Alice -> Bob), whose
// counterparty Bob has longest path B>C>A of length 2 to the leader.
func (b *bench) arc0Params() SwapParams {
	return SwapParams{
		ID:        "arc0@altcoin",
		ArcID:     0,
		Digraph:   b.d,
		Leaders:   []digraph.Vertex{0},
		Locks:     []hashkey.Lock{b.lock},
		Timelocks: []vtime.Ticks{benchStart.Add(vtime.Scale(benchDiam+2, benchDelta))}, // 140
		Party:     "alice",
		PartyV:    0,
		Counter:   "bob",
		CounterV:  1,
		Asset:     "altcoin",
		Start:     benchStart,
		Delta:     benchDelta,
		DiamBound: benchDiam,
		Directory: b.dir,
	}
}

// bobKey is Bob's full-path hashkey: leader Alice, extended by Carol, then
// Bob — path B>C>A, |p| = 2.
func (b *bench) bobKey() hashkey.Hashkey {
	return hashkey.New(b.secret, b.signers[0]).Extend(b.signers[2]).Extend(b.signers[1])
}

func call(method string, sender chain.PartyID, now vtime.Ticks, args any) chain.Call {
	return chain.Call{Method: method, Sender: sender, Now: now, Args: args}
}

func TestNewSwapValidation(t *testing.T) {
	b := newBench(t)
	good := b.arc0Params()
	if _, err := NewSwap(good); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*SwapParams)
	}{
		{"nil digraph", func(p *SwapParams) { p.Digraph = nil }},
		{"no leaders", func(p *SwapParams) { p.Leaders = nil; p.Locks = nil; p.Timelocks = nil }},
		{"length mismatch", func(p *SwapParams) { p.Locks = append(p.Locks, hashkey.Lock{}) }},
		{"zero delta", func(p *SwapParams) { p.Delta = 0 }},
		{"arc endpoint mismatch", func(p *SwapParams) { p.PartyV, p.CounterV = 2, 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := b.arc0Params()
			tt.mutate(&p)
			if _, err := NewSwap(p); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestUnlockHappyPath(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	res, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{LockIndex: 0, Key: b.bobKey()}))
	if err != nil {
		t.Fatalf("unlock: %v", err)
	}
	ev, ok := res.Event.(*UnlockedEvent)
	if !ok || ev.ArcID != 0 || ev.LockIndex != 0 {
		t.Errorf("event = %+v, want &UnlockedEvent{arc 0, lock 0}", res.Event)
	}
	if !s.AllUnlocked() {
		t.Error("single lock should be fully unlocked")
	}
	if got := s.Unlocked(); !got[0] {
		t.Error("Unlocked()[0] should be true")
	}
	if s.UnlockKey(0).PathLen() != 2 {
		t.Error("UnlockKey should return the presented hashkey")
	}
}

func TestUnlockDeadlineIsPathDependent(t *testing.T) {
	b := newBench(t)

	// |p| = 2: valid through the inclusive deadline start + (2+2)Δ = 140.
	s, _ := NewSwap(b.arc0Params())
	if _, err := s.Invoke(call(MethodUnlock, "bob", 140, UnlockArgs{Key: b.bobKey()})); err != nil {
		t.Errorf("unlock at the inclusive deadline 140 with |p|=2: %v", err)
	}
	s2, _ := NewSwap(b.arc0Params())
	if _, err := s2.Invoke(call(MethodUnlock, "bob", 141, UnlockArgs{Key: b.bobKey()})); !errors.Is(err, ErrHashkeyExpired) {
		t.Errorf("unlock at 141 err = %v, want ErrHashkeyExpired", err)
	}
}

func TestUnlockRejections(t *testing.T) {
	b := newBench(t)
	key := b.bobKey()
	tests := []struct {
		name string
		call chain.Call
		want error
	}{
		{"wrong sender", call(MethodUnlock, "mallory", 110, UnlockArgs{Key: key}), ErrNotCounterparty},
		{"party cannot unlock", call(MethodUnlock, "alice", 110, UnlockArgs{Key: key}), ErrNotCounterparty},
		{"bad args type", call(MethodUnlock, "bob", 110, "zzz"), ErrBadArgs},
		{"lock index", call(MethodUnlock, "bob", 110, UnlockArgs{LockIndex: 5, Key: key}), ErrLockIndex},
		{"negative index", call(MethodUnlock, "bob", 110, UnlockArgs{LockIndex: -1, Key: key}), ErrLockIndex},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, _ := NewSwap(b.arc0Params())
			if _, err := s.Invoke(tt.call); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUnlockRejectsWrongPresenter(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	// Carol's hashkey (path C>A) presented on Bob's arc: valid chain, but
	// the path does not start at the counterparty.
	carolKey := hashkey.New(b.secret, b.signers[0]).Extend(b.signers[2])
	_, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: carolKey}))
	if !errors.Is(err, ErrWrongPresenter) {
		t.Errorf("err = %v, want ErrWrongPresenter", err)
	}
}

func TestUnlockRejectsTamperedKey(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	key := b.bobKey()
	key.Sigs[1][0] ^= 1
	if _, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: key})); err == nil {
		t.Error("tampered signature chain should be rejected")
	}
	// Wrong secret.
	other, _ := hashkey.NewSecret(rand.New(rand.NewSource(77)))
	badKey := hashkey.New(other, b.signers[0]).Extend(b.signers[2]).Extend(b.signers[1])
	if _, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: badKey})); err == nil {
		t.Error("wrong secret should be rejected")
	}
}

func TestUnlockTwiceRejected(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	if _, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: b.bobKey()})); err != nil {
		t.Fatalf("first unlock: %v", err)
	}
	if _, err := s.Invoke(call(MethodUnlock, "bob", 111, UnlockArgs{Key: b.bobKey()})); !errors.Is(err, ErrAlreadyUnlocked) {
		t.Errorf("second unlock err = %v, want ErrAlreadyUnlocked", err)
	}
}

func TestClaim(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())

	if _, err := s.Invoke(call(MethodClaim, "bob", 110, nil)); !errors.Is(err, ErrLocksOutstanding) {
		t.Errorf("claim before unlock err = %v, want ErrLocksOutstanding", err)
	}
	if _, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: b.bobKey()})); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if _, err := s.Invoke(call(MethodClaim, "alice", 111, nil)); !errors.Is(err, ErrNotCounterparty) {
		t.Errorf("claim by party err = %v, want ErrNotCounterparty", err)
	}
	res, err := s.Invoke(call(MethodClaim, "bob", 111, nil))
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if res.Transfer != chain.ByParty("bob") {
		t.Errorf("claim transfer = %v, want bob", res.Transfer)
	}
	// Claim has no deadline: far-future claim also works on a fresh copy.
	s2, _ := NewSwap(b.arc0Params())
	s2.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: b.bobKey()}))
	if _, err := s2.Invoke(call(MethodClaim, "bob", 10_000, nil)); err != nil {
		t.Errorf("late claim: %v", err)
	}
}

func TestRefund(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params()) // timelock 140

	if _, err := s.Invoke(call(MethodRefund, "bob", 150, nil)); !errors.Is(err, ErrNotParty) {
		t.Errorf("refund by counterparty err = %v, want ErrNotParty", err)
	}
	if _, err := s.Invoke(call(MethodRefund, "alice", 140, nil)); !errors.Is(err, ErrNotRefundable) {
		t.Errorf("refund at the inclusive unlock deadline err = %v, want ErrNotRefundable", err)
	}
	res, err := s.Invoke(call(MethodRefund, "alice", 141, nil))
	if err != nil {
		t.Fatalf("refund just past the deadline: %v", err)
	}
	if res.Transfer != chain.ByParty("alice") {
		t.Errorf("refund transfer = %v, want alice", res.Transfer)
	}
}

func TestRefundBlockedByFullUnlock(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	if _, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: b.bobKey()})); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	// All locks open: never refundable, even long after the timelock.
	if _, err := s.Invoke(call(MethodRefund, "alice", 10_000, nil)); !errors.Is(err, ErrNotRefundable) {
		t.Errorf("refund after full unlock err = %v, want ErrNotRefundable", err)
	}
	if s.Refundable(10_000) {
		t.Error("Refundable should be false once all locks are open")
	}
}

func TestUnknownMethod(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	if _, err := s.Invoke(call("steal", "bob", 110, nil)); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("err = %v, want ErrUnknownMethod", err)
	}
}

func TestStorageSizeDominatedByDigraph(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	if s.StorageSize() <= b.d.EncodedSize() {
		t.Errorf("StorageSize %d should exceed the digraph encoding %d",
			s.StorageSize(), b.d.EncodedSize())
	}
}

func TestParamsReturnsCopies(t *testing.T) {
	b := newBench(t)
	s, _ := NewSwap(b.arc0Params())
	p := s.Params()
	p.Locks[0] = hashkey.Lock{9}
	p.Timelocks[0] = 1
	p.Leaders[0] = 9
	p2 := s.Params()
	if p2.Locks[0] == (hashkey.Lock{9}) || p2.Timelocks[0] == 1 || p2.Leaders[0] == 9 {
		t.Error("Params should return copies of its slices")
	}
}

// TestLifecycleOnChain runs the contract through a real chain: publish
// escrows, unlock+claim transfers to Bob.
func TestLifecycleOnChain(t *testing.T) {
	b := newBench(t)
	now := vtime.Ticks(105)
	clock := vtime.ClockFunc(func() vtime.Ticks { return now })
	ch := chain.New("altcoin", clock)
	if err := ch.RegisterAsset(chain.Asset{ID: "altcoin", Amount: 100}, "alice"); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSwap(b.arc0Params())
	if err := ch.PublishContract("alice", s); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if owner, _ := ch.OwnerOf("altcoin"); owner != chain.ByEscrow("arc0@altcoin") {
		t.Fatalf("asset not escrowed: %v", owner)
	}
	args := UnlockArgs{Key: b.bobKey()}
	if err := ch.Invoke("bob", "arc0@altcoin", MethodUnlock, args, args.WireSize()); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	now = 112
	if err := ch.Invoke("bob", "arc0@altcoin", MethodClaim, nil, 0); err != nil {
		t.Fatalf("claim: %v", err)
	}
	if owner, _ := ch.OwnerOf("altcoin"); owner != chain.ByParty("bob") {
		t.Errorf("owner = %v, want bob", owner)
	}
	if !ch.VerifyLedger() {
		t.Error("ledger should verify")
	}
}

// TestMultiLockContract exercises a two-leader hashlock vector: both locks
// must open before claim.
func TestMultiLockContract(t *testing.T) {
	// Two-leader triangle: A and B lead; contract on arc A->C... use the
	// complete digraph on {A, B, C} with arcs both ways.
	d := digraph.New()
	a := d.AddVertex("A")
	bv := d.AddVertex("B")
	c := d.AddVertex("C")
	d.MustAddArc(a, bv)
	d.MustAddArc(bv, a)
	d.MustAddArc(bv, c)
	d.MustAddArc(c, bv)
	d.MustAddArc(c, a)
	arcAC := d.MustAddArc(a, c)

	r := rand.New(rand.NewSource(13))
	signers := make([]*hashkey.Signer, 3)
	for i := range signers {
		s, err := hashkey.NewSigner(digraph.Vertex(i), r)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
	}
	dir := hashkey.NewDirectory(signers...)
	sa, _ := hashkey.NewSecret(r)
	sb, _ := hashkey.NewSecret(r)

	diam := 2
	start := vtime.Ticks(100)
	delta := vtime.Duration(10)
	deadline := func(maxPath int) vtime.Ticks { return start.Add(vtime.Scale(diam+maxPath, delta)) }
	s, err := NewSwap(SwapParams{
		ID:      "ac",
		ArcID:   arcAC,
		Digraph: d,
		Leaders: []digraph.Vertex{a, bv},
		Locks:   []hashkey.Lock{sa.Lock(), sb.Lock()},
		// Longest paths from counterparty C: C>B>A (2) to leader A,
		// C>A... wait for leader B: C>A>B (2).
		Timelocks: []vtime.Ticks{deadline(2), deadline(2)},
		Party:     "A", PartyV: a,
		Counter: "C", CounterV: c,
		Asset: "x", Start: start, Delta: delta, DiamBound: diam,
		Directory: dir,
	})
	if err != nil {
		t.Fatalf("NewSwap: %v", err)
	}

	// C unlocks lock 0 with path C>A (leader A).
	keyA := hashkey.New(sa, signers[0]).Extend(signers[2])
	if _, err := s.Invoke(call(MethodUnlock, "C", 110, UnlockArgs{LockIndex: 0, Key: keyA})); err != nil {
		t.Fatalf("unlock A-lock: %v", err)
	}
	if s.AllUnlocked() {
		t.Fatal("one of two locks open should not be AllUnlocked")
	}
	if _, err := s.Invoke(call(MethodClaim, "C", 111, nil)); !errors.Is(err, ErrLocksOutstanding) {
		t.Fatalf("claim with one lock open err = %v, want ErrLocksOutstanding", err)
	}
	// C unlocks lock 1 with path C>B (leader B).
	keyB := hashkey.New(sb, signers[1]).Extend(signers[2])
	if _, err := s.Invoke(call(MethodUnlock, "C", 112, UnlockArgs{LockIndex: 1, Key: keyB})); err != nil {
		t.Fatalf("unlock B-lock: %v", err)
	}
	if _, err := s.Invoke(call(MethodClaim, "C", 113, nil)); err != nil {
		t.Fatalf("claim: %v", err)
	}
	// Partial unlock + expiry of the other lock means refundable on a
	// fresh contract.
	s2, _ := NewSwap(SwapParams{
		ID: "ac2", ArcID: arcAC, Digraph: d,
		Leaders:   []digraph.Vertex{a, bv},
		Locks:     []hashkey.Lock{sa.Lock(), sb.Lock()},
		Timelocks: []vtime.Ticks{deadline(2), deadline(2)},
		Party:     "A", PartyV: a, Counter: "C", CounterV: c,
		Asset: "x", Start: start, Delta: delta, DiamBound: diam,
		Directory: dir,
	})
	if _, err := s2.Invoke(call(MethodUnlock, "C", 110, UnlockArgs{LockIndex: 0, Key: keyA})); err != nil {
		t.Fatal(err)
	}
	if !s2.Refundable(deadline(2).Add(1)) {
		t.Error("lock 1 still closed past its deadline: contract should be refundable")
	}
}

// TestResultNotesKeepTheFmtLayout pins the ledger notes a Swap's methods
// return to the fmt layouts they were first written with: the hosting
// chain hashes the note into its record chain, so one changed byte forks
// every ledger ever persisted.
func TestResultNotesKeepTheFmtLayout(t *testing.T) {
	b := newBench(t)
	key := b.bobKey()

	s, _ := NewSwap(b.arc0Params())
	res, err := s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{LockIndex: 0, Key: key}))
	if err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if want := fmt.Sprintf("hashlock %d opened, path %v", 0, key.Path); res.Note != want || want != "hashlock 0 opened, path 1>2>0" {
		t.Errorf("unlock note %q, fmt layout %q", res.Note, want)
	}
	res, err = s.Invoke(call(MethodClaim, "bob", 111, nil))
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if want := fmt.Sprintf("arc %d claimed by %s", 0, chain.PartyID("bob")); res.Note != want {
		t.Errorf("claim note %q, fmt layout %q", res.Note, want)
	}

	s, _ = NewSwap(b.arc0Params())
	res, err = s.Invoke(call(MethodRefund, "alice", 141, nil))
	if err != nil {
		t.Fatalf("refund: %v", err)
	}
	if want := fmt.Sprintf("arc %d refunded to %s", 0, chain.PartyID("alice")); res.Note != want {
		t.Errorf("refund note %q, fmt layout %q", res.Note, want)
	}
}

// TestSwapNotesKeepTheFmtLayout pins, byte for byte, the ledger notes a
// Swap's invocations leave on their hosting chain — the contract's note
// behind Chain.Invoke's "method: " prefix — for unlocks presenting paths
// of length 0 to 3, broadcast's virtual length-1 path, a second hashlock,
// a claim and a refund. The chain hashes every note into its record
// chain, and neither the suite digests nor the runner golden read note
// bytes, so this is what catches a changed note.
func TestSwapNotesKeepTheFmtLayout(t *testing.T) {
	// The complete digraph on four vertexes, leaders 0 and 2: arc IDs
	// run 0..11, so the claim and refund notes below print two digits.
	d := digraph.New()
	for i := 0; i < 4; i++ {
		d.AddVertex("")
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				d.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
			}
		}
	}
	r := rand.New(rand.NewSource(21))
	signers := make([]*hashkey.Signer, 4)
	for i := range signers {
		s, err := hashkey.NewSigner(digraph.Vertex(i), r)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
	}
	dir := hashkey.NewDirectory(signers...)
	s0, _ := hashkey.NewSecret(r)
	s2, _ := hashkey.NewSecret(r)
	leaders := []digraph.Vertex{0, 2}
	secrets := []hashkey.Secret{s0, s2}
	keyAlong := func(lock int, path ...digraph.Vertex) hashkey.Hashkey {
		k := hashkey.New(secrets[lock], signers[path[len(path)-1]])
		for i := len(path) - 2; i >= 0; i-- {
			k = k.Extend(signers[path[i]])
		}
		return k
	}
	arcOf := func(head, tail digraph.Vertex) int {
		for id := 0; id < d.NumArcs(); id++ {
			if a := d.Arc(id); a.Head == head && a.Tail == tail {
				return id
			}
		}
		t.Fatalf("no arc %d->%d", head, tail)
		return -1
	}
	var now vtime.Ticks = 105
	ch := chain.New("notes", vtime.ClockFunc(func() vtime.Ticks { return now }))
	party := func(v digraph.Vertex) chain.PartyID { return chain.PartyID(fmt.Sprintf("p%d", v)) }
	publish := func(head, tail digraph.Vertex, broadcast bool) (chain.ContractID, int) {
		t.Helper()
		id := arcOf(head, tail)
		cid := chain.ContractID(fmt.Sprintf("c%d-%v", id, broadcast))
		asset := chain.AssetID(cid)
		if err := ch.RegisterAsset(chain.Asset{ID: asset, Amount: 1}, party(head)); err != nil {
			t.Fatal(err)
		}
		sw, err := NewSwap(SwapParams{
			ID: cid, ArcID: id, Digraph: d,
			Leaders:   leaders,
			Locks:     []hashkey.Lock{s0.Lock(), s2.Lock()},
			Timelocks: []vtime.Ticks{140, 140},
			Party:     party(head), PartyV: head,
			Counter: party(tail), CounterV: tail,
			Asset: asset, Start: 100, Delta: 10, DiamBound: 1,
			Directory: dir, Broadcast: broadcast,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.PublishContract(party(head), sw); err != nil {
			t.Fatal(err)
		}
		return cid, id
	}
	var want []string
	unlock := func(cid chain.ContractID, tail digraph.Vertex, lock int, key hashkey.Hashkey, literal string) {
		t.Helper()
		args := UnlockArgs{LockIndex: lock, Key: key}
		if err := ch.Invoke(party(tail), cid, MethodUnlock, args, args.WireSize()); err != nil {
			t.Fatalf("unlock %d along %v: %v", lock, key.Path, err)
		}
		if layout := fmt.Sprintf("%s: hashlock %d opened, path %v", MethodUnlock, lock, key.Path); layout != literal {
			t.Fatalf("fmt layout %q, literal %q", layout, literal)
		}
		want = append(want, literal)
	}

	// Path lengths 0 (the leader's own key) to 3, on lock 0.
	c, _ := publish(1, 0, false)
	unlock(c, 0, 0, keyAlong(0, 0), "unlock: hashlock 0 opened, path 0")
	c, _ = publish(2, 1, false)
	unlock(c, 1, 0, keyAlong(0, 1, 0), "unlock: hashlock 0 opened, path 1>0")
	c, _ = publish(0, 1, false)
	unlock(c, 1, 0, keyAlong(0, 1, 3, 0), "unlock: hashlock 0 opened, path 1>3>0")
	claimC, claimArc := publish(3, 1, false)
	unlock(claimC, 1, 0, keyAlong(0, 1, 2, 3, 0), "unlock: hashlock 0 opened, path 1>2>3>0")
	unlock(claimC, 1, 1, keyAlong(1, 1, 3, 2), "unlock: hashlock 1 opened, path 1>3>2")
	now = 110
	if err := ch.Invoke(party(1), claimC, MethodClaim, nil, 0); err != nil {
		t.Fatalf("claim: %v", err)
	}
	want = append(want, fmt.Sprintf("%s: arc %d claimed by %s", MethodClaim, claimArc, party(1)))

	// Broadcast's virtual path (counterparty, leader) on a three-cycle,
	// where the counterparty has no arc to the leader.
	cyc := digraph.New()
	for i := 0; i < 3; i++ {
		cyc.AddVertex("")
	}
	cyc.MustAddArc(0, 1)
	cyc.MustAddArc(1, 2)
	cyc.MustAddArc(2, 0)
	bsw, err := NewSwap(SwapParams{
		ID: "bcast", ArcID: 0, Digraph: cyc,
		Leaders: []digraph.Vertex{0}, Locks: []hashkey.Lock{s0.Lock()},
		Timelocks: []vtime.Ticks{140},
		Party:     party(0), PartyV: 0, Counter: party(1), CounterV: 1,
		Asset: "bcast", Start: 100, Delta: 10, DiamBound: 2,
		Directory: dir[:3], Broadcast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.RegisterAsset(chain.Asset{ID: "bcast", Amount: 1}, party(0)); err != nil {
		t.Fatal(err)
	}
	if err := ch.PublishContract(party(0), bsw); err != nil {
		t.Fatal(err)
	}
	unlock("bcast", 1, 0, keyAlong(0, 1, 0), "unlock: hashlock 0 opened, path 1>0")

	// A refund: lock 1 never opens on this contract.
	refundC, refundArc := publish(3, 2, false)
	now = 141
	if err := ch.Invoke(party(3), refundC, MethodRefund, nil, 0); err != nil {
		t.Fatalf("refund: %v", err)
	}
	want = append(want, fmt.Sprintf("%s: arc %d refunded to %s", MethodRefund, refundArc, party(3)))
	if w := want[len(want)-3:]; w[0] != "claim: arc 10 claimed by p1" || w[2] != "refund: arc 11 refunded to p3" {
		t.Fatalf("fmt layouts drifted: %q", w)
	}

	var got []string
	for _, rec := range ch.Records() {
		if rec.Kind == chain.NoteInvocation {
			got = append(got, rec.Note)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("invocation notes\n got %q\nwant %q", got, want)
	}
	if !ch.VerifyLedger() {
		t.Error("ledger does not verify")
	}
}

// TestSwapOwnsWhatItKeeps pins that a contract aliases no buffer its
// caller owns: NewSwap copies the per-lock vectors, and an unlock —
// argument passed by pointer, as a runtime reusing its buffer does —
// keeps a copy of the hashkey, so the caller may overwrite both.
func TestSwapOwnsWhatItKeeps(t *testing.T) {
	b := newBench(t)
	p := b.arc0Params()
	want := b.arc0Params()
	s, err := NewSwap(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Leaders[0], p.Locks[0], p.Timelocks[0] = 2, hashkey.Lock{7}, 1
	if !s.Matches(&want) {
		t.Error("writing the caller's vectors changed the contract")
	}

	args := &UnlockArgs{Key: b.bobKey()}
	path := args.Key.Path.String()
	if _, err := s.Invoke(call(MethodUnlock, "bob", 110, args)); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	args.Key.Path[0] = 2
	args.Key.Sigs[0][0] ^= 0xff
	*args = UnlockArgs{LockIndex: 1}
	kept := s.UnlockKey(0)
	if kept.Path.String() != path {
		t.Errorf("kept path %v, presented %s", kept.Path, path)
	}
	if err := kept.Verify(b.lock, b.d, 0, b.dir); err != nil {
		t.Errorf("kept hashkey no longer verifies: %v", err)
	}
}

// TestSwapRevertThenUnlockAgain is the Swap's half of
// TestHTLCRevertThenRedeemAgain, through an unlock passed by pointer as a
// runtime reusing its argument buffer passes it: the revert closes the
// lock, the chain re-applies the call with the arguments it was made
// with, and the reopening emits a fresh event, leaving the first one as
// it was emitted.
func TestSwapRevertThenUnlockAgain(t *testing.T) {
	b := newBench(t)
	clk := &tickClock{now: 105}
	ch := chain.New("altcoin", clk)
	if err := ch.SetCommitmentModel(revertRedeem{}, func(vtime.Ticks) {}); err != nil {
		t.Fatal(err)
	}
	var events []*UnlockedEvent
	ch.Subscribe("test", func(n chain.Notification) {
		if ev, ok := n.Event.(*UnlockedEvent); ok {
			events = append(events, ev)
		}
	})
	if err := ch.RegisterAsset(chain.Asset{ID: "altcoin", Amount: 1}, "alice"); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSwap(b.arc0Params())
	if err := ch.PublishContract("alice", s); err != nil {
		t.Fatal(err)
	}
	clk.now = 110
	args := &UnlockArgs{Key: b.bobKey()}
	if err := ch.Invoke("bob", "arc0@altcoin", MethodUnlock, args, args.WireSize()); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	*args = UnlockArgs{LockIndex: 5} // the buffer's next use

	clk.now = 112 // the unlock's revert
	ch.SettleCommitments(clk.now)
	if _, open := s.UnlockTime(0); open {
		t.Fatal("lock 0 still open after its unlock reverted")
	}
	clk.now = 113 // the re-applied unlock
	ch.SettleCommitments(clk.now)
	at, open := s.UnlockTime(0)
	if !open || at != 113 {
		t.Fatalf("lock 0 open=%v at %d after the re-apply, want open at 113", open, at)
	}
	if len(events) != 2 || events[0] == events[1] {
		t.Fatalf("events %v, want two distinct", events)
	}
	for i, ev := range events {
		if ev.ArcID != 0 || ev.LockIndex != 0 || ev.Key.Path.String() != "1>2>0" {
			t.Errorf("event %d reads %+v after the reopening", i, *ev)
		}
	}
	if !ch.VerifyLedger() {
		t.Error("ledger does not verify")
	}
}

// arc1Params returns the contract params for arc 1 (Bob -> Carol), whose
// counterparty Carol reaches the leader Alice in one hop, so every key
// she can present has two links.
func (b *bench) arc1Params() SwapParams {
	p := b.arc0Params()
	p.ID, p.ArcID = "arc1@bitcoin", 1
	p.Timelocks = []vtime.Ticks{benchStart.Add(vtime.Scale(benchDiam+1, benchDelta))} // 130
	p.Party, p.PartyV, p.Counter, p.CounterV = "bob", 1, "carol", 2
	p.Asset = "bitcoin"
	return p
}

// carolKey is Carol's hashkey: leader Alice, extended by Carol — path
// C>A, |p| = 1.
func (b *bench) carolKey() hashkey.Hashkey {
	return hashkey.New(b.secret, b.signers[0]).Extend(b.signers[2])
}

// TestSwapInKeepsUnlocksInItsRecords pins what a contract built on its
// swap's Unlocks keeps there: the copy of a two-link opening key, which no
// write to the caller's buffers reaches, and the unlock's note, spelled as
// it always was. A record is used once, and a longer key or an Unlocks
// sized for another swap takes fresh storage.
func TestSwapInKeepsUnlocksInItsRecords(t *testing.T) {
	b := newBench(t)
	u := NewUnlocks(b.d.NumArcs(), 1)
	s, err := NewSwapIn(b.arc1Params(), u)
	if err != nil {
		t.Fatal(err)
	}
	args := &UnlockArgs{Key: b.carolKey()}
	res, err := s.Invoke(call(MethodUnlock, "carol", 110, args))
	if err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if want := fmt.Sprintf("hashlock %d opened, path %v", 0, args.Key.Path); res.Note != want {
		t.Errorf("unlock note %q, fmt layout %q", res.Note, want)
	}
	ev := res.Event.(*UnlockedEvent)
	if !inRecord(ev.Key, &u[1]) {
		t.Error("the kept key is not in arc 1's record")
	}
	args.Key.Path[0] = 1
	args.Key.Sigs[0][0] ^= 0xff
	args.Key.Sigs[1][0] ^= 0xff
	*args = UnlockArgs{LockIndex: 3}
	kept := s.UnlockKey(0)
	if kept.Path.String() != "2>0" {
		t.Errorf("kept path %v, presented 2>0", kept.Path)
	}
	if err := kept.Verify(b.lock, b.d, 0, b.dir); err != nil {
		t.Errorf("kept hashkey no longer verifies: %v", err)
	}
	note := res.Note
	for range 2 {
		res, err := s.Invoke(call(MethodClaim, "carol", 111, nil))
		if err != nil {
			t.Fatalf("claim: %v", err)
		}
		if res.Note != "arc 1 claimed by carol" {
			t.Errorf("claim note %q", res.Note)
		}
	}
	if note != "hashlock 0 opened, path 2>0" {
		t.Errorf("the unlock note reads %q after the claims", note)
	}

	// A second contract of the same arc finds the record used.
	again, _ := NewSwapIn(b.arc1Params(), u)
	res, err = again.Invoke(call(MethodUnlock, "carol", 110, UnlockArgs{Key: b.carolKey()}))
	if err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if inRecord(res.Event.(*UnlockedEvent).Key, &u[1]) {
		t.Error("a used record was written again")
	}
	if ev.Key.Path.String() != "2>0" || ev.Key.Verify(b.lock, b.d, 0, b.dir) != nil {
		t.Errorf("the first event reads %v after another contract's unlock", ev.Key.Path)
	}

	// Bob's key has three links: arc 0's record stays unused.
	s0, _ := NewSwapIn(b.arc0Params(), u)
	res, err = s0.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: b.bobKey()}))
	if err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if res.Note != "hashlock 0 opened, path 1>2>0" || inRecord(res.Event.(*UnlockedEvent).Key, &u[0]) {
		t.Errorf("a three-link key noted %q in arc 0's record", res.Note)
	}
	if _, held := u[0].key.Hold(b.carolKey()); !held {
		t.Error("arc 0's record was used by a key it cannot hold")
	}

	if s, _ := NewSwapIn(b.arc1Params(), NewUnlocks(2, 1)); s.recs != nil {
		t.Error("a contract took records from an Unlocks sized for another swap")
	}

	// A claim note that outgrows the contract's buffer is a heap copy.
	p := b.arc1Params()
	p.Counter = "carol-of-the-long-name"
	long, _ := NewSwapIn(p, NewUnlocks(b.d.NumArcs(), 1))
	if got, want := long.claimNote(), fmt.Sprintf("arc %d claimed by %s", 1, p.Counter); got != want || long.claim[0] != 0 {
		t.Errorf("claim note %q, fmt layout %q", got, want)
	}
}

// inRecord reports whether k's storage is r's.
func inRecord(k hashkey.Hashkey, r *unlockRecord) bool {
	start := uintptr(unsafe.Pointer(r))
	p := uintptr(unsafe.Pointer(&k.Sigs[0][0]))
	return p >= start && p < start+unsafe.Sizeof(*r)
}

// TestSwapInRevertThenUnlockAgain is TestSwapRevertThenUnlockAgain for a
// contract whose key fits its record: the first opening's key and note
// live in the record, so the reopening after the revert must take fresh
// storage and leave the first event and note as they were emitted.
func TestSwapInRevertThenUnlockAgain(t *testing.T) {
	b := newBench(t)
	clk := &tickClock{now: 105}
	ch := chain.New("bitcoin", clk)
	if err := ch.SetCommitmentModel(revertRedeem{}, func(vtime.Ticks) {}); err != nil {
		t.Fatal(err)
	}
	var events []*UnlockedEvent
	ch.Subscribe("test", func(n chain.Notification) {
		if ev, ok := n.Event.(*UnlockedEvent); ok {
			events = append(events, ev)
		}
	})
	if err := ch.RegisterAsset(chain.Asset{ID: "bitcoin", Amount: 1}, "bob"); err != nil {
		t.Fatal(err)
	}
	u := NewUnlocks(b.d.NumArcs(), 1)
	s, _ := NewSwapIn(b.arc1Params(), u)
	if err := ch.PublishContract("bob", s); err != nil {
		t.Fatal(err)
	}
	clk.now = 110
	args := &UnlockArgs{Key: b.carolKey()}
	sig := slices.Clone(args.Key.Sigs[0])
	if err := ch.Invoke("carol", "arc1@bitcoin", MethodUnlock, args, args.WireSize()); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	*args = UnlockArgs{LockIndex: 5}
	clk.now = 112
	ch.SettleCommitments(clk.now)
	clk.now = 113
	ch.SettleCommitments(clk.now)
	if at, open := s.UnlockTime(0); !open || at != 113 {
		t.Fatalf("lock 0 open=%v at %d after the re-apply, want open at 113", open, at)
	}
	if len(events) != 2 || events[0] == events[1] {
		t.Fatalf("events %v, want two distinct", events)
	}
	if !inRecord(events[0].Key, &u[1]) || inRecord(events[1].Key, &u[1]) {
		t.Error("want the first opening in the record and the reopening outside it")
	}
	for i, ev := range events {
		if ev.Key.Path.String() != "2>0" || !slices.Equal(ev.Key.Sigs[0], sig) {
			t.Errorf("event %d reads %v after the reopening", i, ev.Key.Path)
		}
	}
	var notes []string
	for _, rec := range ch.Records() {
		if rec.Kind == chain.NoteInvocation {
			notes = append(notes, rec.Note)
		}
	}
	if want := []string{"unlock: hashlock 0 opened, path 2>0", "unlock: hashlock 0 opened, path 2>0"}; !slices.Equal(notes, want) {
		t.Errorf("invocation notes %q, want %q", notes, want)
	}
	if !ch.VerifyLedger() {
		t.Error("ledger does not verify")
	}
}

// TestSwapStaysInItsSizeClass pins a contract of up to inlineLocks
// hashlocks at one object in the 768-byte size class. The runtime heads
// a pointerful object of more than 512 bytes with an 8-byte type word,
// so a Swap of more than 760 bytes lands in the 896-byte class: 1.5 KB a
// four-party clique, which the clique's byte ceiling in
// TestAllocationBudget is too loose to see.
func TestSwapStaysInItsSizeClass(t *testing.T) {
	p := newBench(t).arc0Params()
	if allocs := testing.AllocsPerRun(100, func() { _, _ = NewSwap(p) }); allocs != 1 {
		t.Fatalf("NewSwap allocates %.1f objects, want 1", allocs)
	}
	const n = 1000
	// TotalAlloc is the process's: what another goroutine allocates
	// meanwhile only ever adds, so the least of three attempts is the
	// contracts' own.
	per := uint64(math.MaxUint64)
	for range 3 {
		keep := make([]*Swap, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i], _ = NewSwap(p)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	if per != 768 {
		t.Errorf("a Swap of %d bytes takes %d bytes of heap, want 768", unsafe.Sizeof(Swap{}), per)
	}
}
