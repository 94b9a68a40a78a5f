package hashkey

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// detRand returns a deterministic randomness source for tests.
func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testBench builds the Figure-1 three-cycle with one signer per vertex.
func testBench(t *testing.T) (*digraph.Digraph, []*Signer, Directory) {
	t.Helper()
	d := digraph.New()
	a := d.AddVertex("Alice")
	b := d.AddVertex("Bob")
	c := d.AddVertex("Carol")
	d.MustAddArc(a, b)
	d.MustAddArc(b, c)
	d.MustAddArc(c, a)
	r := detRand(1)
	signers := make([]*Signer, 3)
	for i := range signers {
		s, err := NewSigner(digraph.Vertex(i), r)
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		signers[i] = s
	}
	return d, signers, NewDirectory(signers...)
}

func TestSecretLock(t *testing.T) {
	s, err := NewSecret(detRand(7))
	if err != nil {
		t.Fatalf("NewSecret: %v", err)
	}
	if !s.Matches(s.Lock()) {
		t.Error("secret should match its own lock")
	}
	other, _ := NewSecret(detRand(8))
	if s.Matches(other.Lock()) {
		t.Error("secret should not match another secret's lock")
	}
}

func TestSecretDeterministicFromSeed(t *testing.T) {
	a, _ := NewSecret(detRand(3))
	b, _ := NewSecret(detRand(3))
	if a != b {
		t.Error("same seed should give the same secret")
	}
	c, _ := NewSecret(detRand(4))
	if a == c {
		t.Error("different seeds should differ")
	}
}

func TestSecretStringRedacts(t *testing.T) {
	s, _ := NewSecret(detRand(5))
	str := s.String()
	if len(str) > 20 {
		t.Errorf("Secret.String() = %q leaks too much", str)
	}
}

func TestLeaderHashkey(t *testing.T) {
	d, signers, dir := testBench(t)
	secret, _ := NewSecret(detRand(10))
	hk := New(secret, signers[0])

	if hk.PathLen() != 0 {
		t.Errorf("leader hashkey PathLen = %d, want 0", hk.PathLen())
	}
	if hk.Leader() != 0 || hk.Presenter() != 0 {
		t.Errorf("leader/presenter = %d/%d, want 0/0", hk.Leader(), hk.Presenter())
	}
	if err := hk.Verify(secret.Lock(), d, 0, dir); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestExtendAndVerify(t *testing.T) {
	d, signers, dir := testBench(t)
	secret, _ := NewSecret(detRand(11))
	lock := secret.Lock()

	// Alice (leader, vertex 0) -> extended by Carol (2) -> by Bob (1):
	// Bob presents path B > C > A, as in Figure 2's propagation.
	hk := New(secret, signers[0]).Extend(signers[2]).Extend(signers[1])
	if hk.PathLen() != 2 {
		t.Fatalf("PathLen = %d, want 2", hk.PathLen())
	}
	if got := hk.Path.String(); got != "1>2>0" {
		t.Fatalf("path = %s, want 1>2>0", got)
	}
	if err := hk.Verify(lock, d, 0, dir); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestExtendDoesNotMutate(t *testing.T) {
	_, signers, _ := testBench(t)
	secret, _ := NewSecret(detRand(12))
	base := New(secret, signers[0])
	ext := base.Extend(signers[2])
	if base.PathLen() != 0 || len(base.Sigs) != 1 {
		t.Error("Extend mutated the receiver")
	}
	if ext.PathLen() != 1 || len(ext.Sigs) != 2 {
		t.Error("Extend result malformed")
	}
}

func TestVerifyRejections(t *testing.T) {
	d, signers, dir := testBench(t)
	secret, _ := NewSecret(detRand(13))
	lock := secret.Lock()
	valid := New(secret, signers[0]).Extend(signers[2])

	tests := []struct {
		name    string
		mutate  func(Hashkey) Hashkey
		lock    Lock
		leader  digraph.Vertex
		wantErr error
	}{
		{
			name:    "wrong secret",
			mutate:  func(h Hashkey) Hashkey { h.Secret[0] ^= 1; return h },
			lock:    lock,
			leader:  0,
			wantErr: ErrWrongSecret,
		},
		{
			name:    "wrong lock",
			mutate:  func(h Hashkey) Hashkey { return h },
			lock:    Lock{1, 2, 3},
			leader:  0,
			wantErr: ErrWrongSecret,
		},
		{
			name:    "wrong leader",
			mutate:  func(h Hashkey) Hashkey { return h },
			lock:    lock,
			leader:  1,
			wantErr: ErrWrongLeader,
		},
		{
			name: "tampered signature",
			mutate: func(h Hashkey) Hashkey {
				h = h.Clone()
				h.Sigs[0][0] ^= 1
				return h
			},
			lock:    lock,
			leader:  0,
			wantErr: ErrBadSignature,
		},
		{
			name: "tampered inner signature",
			mutate: func(h Hashkey) Hashkey {
				h = h.Clone()
				h.Sigs[1][5] ^= 1
				return h
			},
			lock:    lock,
			leader:  0,
			wantErr: ErrBadSignature,
		},
		{
			name: "truncated chain",
			mutate: func(h Hashkey) Hashkey {
				h = h.Clone()
				h.Sigs = h.Sigs[:1]
				return h
			},
			lock:    lock,
			leader:  0,
			wantErr: ErrChainLength,
		},
		{
			name: "empty path",
			mutate: func(h Hashkey) Hashkey {
				h = h.Clone()
				h.Path = nil
				return h
			},
			lock:    lock,
			leader:  0,
			wantErr: ErrEmptyPath,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			hk := tt.mutate(valid)
			err := hk.Verify(tt.lock, d, tt.leader, dir)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Verify err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestVerifyRejectsNonPath(t *testing.T) {
	d, signers, dir := testBench(t)
	secret, _ := NewSecret(detRand(14))
	// Carol extends Alice's hashkey giving path C > A — but then Bob is
	// skipped: a forged path B > A (no arc B->A in the 3-cycle... there is
	// B->C only). Build a chain with correct signatures but invalid path.
	hk := New(secret, signers[0])
	forged := Hashkey{
		Secret: hk.Secret,
		Path:   digraph.Path{1, 0}, // B > A: no arc B->A in D
		Sigs:   [][]byte{signers[1].Sign(hk.Sigs[0]), hk.Sigs[0]},
	}
	if err := forged.Verify(secret.Lock(), d, 0, dir); err == nil {
		t.Error("Verify should reject a non-path")
	}
}

func TestVerifyRejectsUnknownSigner(t *testing.T) {
	d, signers, dir := testBench(t)
	secret, _ := NewSecret(detRand(15))
	hk := New(secret, signers[0]).Extend(signers[2])
	dir[2] = nil
	if err := hk.Verify(secret.Lock(), d, 0, dir); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("Verify err = %v, want ErrUnknownSigner", err)
	}
}

func TestVerifyRejectsSignerSubstitution(t *testing.T) {
	// A party cannot impersonate another on the path: Bob extends, but the
	// path claims Carol did.
	d, signers, dir := testBench(t)
	secret, _ := NewSecret(detRand(16))
	base := New(secret, signers[0])
	hk := base.Extend(signers[1]) // Bob signs
	hk.Path[0] = 2                // but path says Carol
	if err := hk.Verify(secret.Lock(), d, 0, dir); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Verify err = %v, want ErrBadSignature", err)
	}
}

func TestWireSizeGrowsWithPath(t *testing.T) {
	_, signers, _ := testBench(t)
	secret, _ := NewSecret(detRand(17))
	hk := New(secret, signers[0])
	size0 := hk.WireSize()
	hk = hk.Extend(signers[2])
	size1 := hk.WireSize()
	if size1 <= size0 {
		t.Errorf("WireSize did not grow: %d -> %d", size0, size1)
	}
	if want := SecretSize + 4 + SigSize; size0 != want {
		t.Errorf("degenerate WireSize = %d, want %d", size0, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	_, signers, _ := testBench(t)
	secret, _ := NewSecret(detRand(18))
	hk := New(secret, signers[0]).Extend(signers[2])
	c := hk.Clone()
	c.Sigs[0][0] ^= 1
	c.Path[0] = 9
	if hk.Sigs[0][0] == c.Sigs[0][0] {
		t.Error("Clone shares signature storage")
	}
	if hk.Path[0] == 9 {
		t.Error("Clone shares path storage")
	}
}

// TestChainPropertyRandomPaths verifies that any chain built by successive
// Extend calls along a real path verifies, for random path lengths.
func TestChainPropertyRandomPaths(t *testing.T) {
	f := func(seed int64, pathLen uint8) bool {
		n := int(pathLen%8) + 2
		r := detRand(seed)
		// Build a directed line n-1 -> n-2 -> ... -> 0 plus closing arc to
		// make vertex 0 the "leader" reachable from all.
		d := digraph.New()
		for i := 0; i < n; i++ {
			d.AddVertex("")
		}
		for i := n - 1; i > 0; i-- {
			d.MustAddArc(digraph.Vertex(i), digraph.Vertex(i-1))
		}
		d.MustAddArc(digraph.Vertex(0), digraph.Vertex(n-1)) // close the cycle
		signers := make([]*Signer, n)
		for i := range signers {
			s, err := NewSigner(digraph.Vertex(i), r)
			if err != nil {
				return false
			}
			signers[i] = s
		}
		dir := NewDirectory(signers...)
		secret, err := NewSecret(r)
		if err != nil {
			return false
		}
		hk := New(secret, signers[0])
		for i := 1; i < n; i++ {
			hk = hk.Extend(signers[i])
			if hk.PathLen() != i {
				return false
			}
		}
		return hk.Verify(secret.Lock(), d, 0, dir) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
