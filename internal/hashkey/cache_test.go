package hashkey

import (
	"errors"
	"slices"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// cacheBench builds a 5-cycle (4 hops leader→presenter) with one signer
// per vertex: long enough that the suffix fast path is distinguishable
// from a full-chain walk.
func cacheBench(t *testing.T) (*digraph.Digraph, []*Signer, Directory) {
	t.Helper()
	const n = 5
	d := digraph.New()
	for i := 0; i < n; i++ {
		d.AddVertex("")
	}
	// A bidirectional ring, so (0, 1, ..., k) is a simple path for any k
	// and every extension used below stays inside the digraph.
	for i := 0; i < n; i++ {
		d.MustAddArc(digraph.Vertex(i), digraph.Vertex((i+1)%n))
		d.MustAddArc(digraph.Vertex((i+1)%n), digraph.Vertex(i))
	}
	r := detRand(11)
	signers := make([]*Signer, n)
	for i := range signers {
		s, err := NewSigner(digraph.Vertex(i), r)
		if err != nil {
			t.Fatalf("NewSigner: %v", err)
		}
		signers[i] = s
	}
	return d, signers, NewDirectory(signers...)
}

// chainOfLen builds the valid hashkey with path (0, 1, ..., leader) by
// extending the leader's degenerate key outward.
func chainOfLen(t *testing.T, signers []*Signer, leaderIdx int) (Secret, Hashkey) {
	t.Helper()
	secret, err := NewSecret(detRand(12))
	if err != nil {
		t.Fatalf("NewSecret: %v", err)
	}
	key := New(secret, signers[leaderIdx])
	for i := leaderIdx - 1; i >= 0; i-- {
		key = key.Extend(signers[i])
	}
	return secret, key
}

func TestVerifyExtendedAgreesWithVerify(t *testing.T) {
	d, signers, dir := cacheBench(t)
	secret, key := chainOfLen(t, signers, 4)
	lock := secret.Lock()
	cache := NewVerifyCache(0)
	for round := 0; round < 3; round++ {
		if err := key.Verify(lock, d, 4, dir); err != nil {
			t.Fatalf("round %d: Verify: %v", round, err)
		}
		if err := key.VerifyExtended(lock, d, 4, dir, cache); err != nil {
			t.Fatalf("round %d: VerifyExtended: %v", round, err)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss then 2 hits", st)
	}
	// Nil cache must behave exactly like Verify.
	if err := key.VerifyExtended(lock, d, 4, dir, nil); err != nil {
		t.Errorf("nil-cache VerifyExtended: %v", err)
	}
}

func TestVerifyExtendedFastPath(t *testing.T) {
	d, signers, dir := cacheBench(t)
	secret, _ := chainOfLen(t, signers, 4)
	lock := secret.Lock()
	cache := NewVerifyCache(0)
	// Verify each successive extension, as the protocol's Phase Two does
	// arc by arc: every step after the first should take the suffix fast
	// path, never a full-chain walk.
	key := New(secret, signers[4])
	if err := key.VerifyExtended(lock, d, 4, dir, cache); err != nil {
		t.Fatalf("leader key: %v", err)
	}
	for i := 3; i >= 0; i-- {
		key = key.Extend(signers[i])
		if err := key.VerifyExtended(lock, d, 4, dir, cache); err != nil {
			t.Fatalf("extension at %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("full-chain walks = %d, want exactly 1 (the leader's degenerate key)", st.Misses)
	}
	if st.Fastpath != 4 {
		t.Errorf("fast-path verifications = %d, want 4", st.Fastpath)
	}
}

// TestCachePoisoning is the adversarial core: a hashkey whose inner suffix
// is validly cached but whose outermost link, path, secret, or lock is
// tampered must still be rejected — the cache must never convert a hot
// suffix into acceptance of a bad chain.
// TestSeedVerified pins the broadcast re-presentation amortization: a
// party that extends a just-verified key and seeds its own extension makes
// every later verification of that extension a pure cache hit — zero
// signature checks, where an unseeded cache would take the one-signature
// fast path.
func TestSeedVerified(t *testing.T) {
	_, signers, dir := cacheBench(t)
	secret, base := chainOfLen(t, signers, 1) // the "broadcast" key (1)
	lock := secret.Lock()
	cache := NewVerifyCache(0)

	// The follower verifies the broadcast key (as OnBroadcast does)...
	if err := base.VerifyCryptoExtended(lock, 1, dir, cache); err != nil {
		t.Fatal(err)
	}
	// ...extends it with its own signature and seeds the extension.
	mine := base.Extend(signers[2])
	if err := mine.SeedVerified(lock, 1, dir, cache); err != nil {
		t.Fatalf("SeedVerified: %v", err)
	}

	before := cache.Stats()
	if err := mine.VerifyCryptoExtended(lock, 1, dir, cache); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("seeded extension not a pure hit: before %+v after %+v", before, after)
	}
	if after.Fastpath != before.Fastpath {
		t.Fatalf("seeded extension took the fast path: %+v", after)
	}

	// Seeding refuses structural garbage and unknown signers: trust can
	// only be asserted over material the lock/leader/directory name.
	if err := mine.SeedVerified(lock, 3, dir, cache); !errors.Is(err, ErrWrongLeader) {
		t.Fatalf("wrong leader seeded: %v", err)
	}
	dir[2] = nil
	if err := mine.SeedVerified(lock, 1, dir, cache); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("unknown signer seeded: %v", err)
	}
	// A nil cache is a no-op, not an error.
	if err := mine.SeedVerified(lock, 1, dir, nil); err != nil {
		t.Fatalf("nil cache: %v", err)
	}
}

func TestCachePoisoning(t *testing.T) {
	d, signers, dir := cacheBench(t)
	secret, suffix := chainOfLen(t, signers, 3) // valid path (0,1,2,3)
	lock := secret.Lock()
	cache := NewVerifyCache(0)
	if err := suffix.VerifyExtended(lock, d, 3, dir, cache); err != nil {
		t.Fatalf("seeding suffix: %v", err)
	}

	// A forger at vertex 4 wants to present (4,0,1,2,3) without signing.
	t.Run("missing-outer-sig", func(t *testing.T) {
		bad := suffix.Clone()
		bad.Path = bad.Path.Prepend(4)
		// Reuse the old outer signature instead of signing: chain length
		// mismatch must reject before any cache lookup can help.
		if err := bad.VerifyExtended(lock, d, 3, dir, cache); !errors.Is(err, ErrChainLength) {
			t.Errorf("got %v, want ErrChainLength", err)
		}
	})

	t.Run("forged-outer-sig", func(t *testing.T) {
		bad := suffix.Clone()
		bad.Path = bad.Path.Prepend(4)
		forged := make([][]byte, 0, len(bad.Sigs)+1)
		forged = append(forged, make([]byte, SigSize)) // zero signature
		forged = append(forged, bad.Sigs...)
		bad.Sigs = forged
		if err := bad.VerifyExtended(lock, d, 3, dir, cache); !errors.Is(err, ErrBadSignature) {
			t.Errorf("got %v, want ErrBadSignature", err)
		}
		// And the failure must not have been cached: still rejected.
		if err := bad.VerifyExtended(lock, d, 3, dir, cache); !errors.Is(err, ErrBadSignature) {
			t.Errorf("second attempt: got %v, want ErrBadSignature", err)
		}
	})

	t.Run("outer-sig-by-wrong-key", func(t *testing.T) {
		// Vertex 4 signs, but the path claims vertex 2 (whose directory
		// key differs) — the content address binds the directory key, so
		// the extension cannot ride the cached suffix.
		bad := suffix.Extend(signers[4])
		bad.Path[0] = 2
		err := bad.VerifyExtended(lock, d, 3, dir, cache)
		if err == nil {
			t.Fatal("tampered presenter vertex accepted")
		}
	})

	t.Run("tampered-secret", func(t *testing.T) {
		bad := suffix.Extend(signers[4])
		bad.Secret[0] ^= 0xff
		if err := bad.VerifyExtended(lock, d, 3, dir, cache); !errors.Is(err, ErrWrongSecret) {
			t.Errorf("got %v, want ErrWrongSecret", err)
		}
	})

	t.Run("tampered-lock", func(t *testing.T) {
		bad := suffix.Extend(signers[4])
		wrongLock := lock
		wrongLock[0] ^= 0xff
		if err := bad.VerifyExtended(wrongLock, d, 3, dir, cache); !errors.Is(err, ErrWrongSecret) {
			t.Errorf("got %v, want ErrWrongSecret", err)
		}
	})

	t.Run("tampered-path-order", func(t *testing.T) {
		bad := suffix.Extend(signers[4])
		bad.Path[1], bad.Path[2] = bad.Path[2], bad.Path[1]
		if err := bad.VerifyExtended(lock, d, 3, dir, cache); err == nil {
			t.Error("reordered path accepted")
		}
	})

	t.Run("valid-extension-still-accepted", func(t *testing.T) {
		good := suffix.Extend(signers[4])
		if err := good.VerifyCryptoExtended(lock, 3, dir, cache); err != nil {
			t.Errorf("valid extension rejected after poisoning attempts: %v", err)
		}
	})
}

// TestCacheKeyCollision checks the content address binds the directory:
// the same bytes (secret, path, sigs) verified under directory A must not
// satisfy verification under directory B where a path vertex has a
// different public key — an attacker who can influence directory contents
// must not inherit cache entries across directories.
func TestCacheKeyCollision(t *testing.T) {
	d, signers, dir := cacheBench(t)
	secret, key := chainOfLen(t, signers, 3)
	lock := secret.Lock()
	cache := NewVerifyCache(0)
	if err := key.VerifyExtended(lock, d, 3, dir, cache); err != nil {
		t.Fatalf("seeding: %v", err)
	}

	// Directory with vertex 1 rebound to a different keypair.
	evil, err := NewSigner(1, detRand(77))
	if err != nil {
		t.Fatal(err)
	}
	dir2 := slices.Clone(dir)
	dir2[1] = evil.Public()
	if err := key.VerifyExtended(lock, d, 3, dir2, cache); err == nil {
		t.Fatal("cache entry leaked across directories: chain accepted under a directory it never verified against")
	}
	// The original context must still hit, untouched by the failed probe.
	before := cache.Stats().Hits
	if err := key.VerifyExtended(lock, d, 3, dir, cache); err != nil {
		t.Fatalf("original context broken: %v", err)
	}
	if cache.Stats().Hits != before+1 {
		t.Error("original context did not hit the cache")
	}
}

// TestCacheRotation exercises the two-generation bound: correctness must
// survive evictions (entries fall out, verification falls back to the
// full walk).
func TestCacheRotation(t *testing.T) {
	d, signers, dir := cacheBench(t)
	cache := NewVerifyCache(2) // tiny: rotates constantly
	for seed := int64(0); seed < 6; seed++ {
		secret, err := NewSecret(detRand(100 + seed))
		if err != nil {
			t.Fatal(err)
		}
		key := New(secret, signers[4])
		for i := 3; i >= 0; i-- {
			key = key.Extend(signers[i])
			if err := key.VerifyExtended(secret.Lock(), d, 4, dir, cache); err != nil {
				t.Fatalf("seed %d ext %d: %v", seed, i, err)
			}
		}
	}
	if st := cache.Stats(); st.Entries > 4 {
		t.Errorf("entries = %d, want bounded by 2 generations × max 2", st.Entries)
	}
}
