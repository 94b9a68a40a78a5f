package hashkey

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// fuzzChain is FuzzVerifyCryptoExtended's valid 3-link chain on the
// Figure-1 three-cycle: Alice (vertex 0) leads, Carol wraps, Bob presents.
func fuzzChain(t testing.TB) (Hashkey, Lock, Directory) {
	_, signers, dir := testBench(t)
	secret, err := NewSecret(detRand(7))
	if err != nil {
		t.Fatal(err)
	}
	return New(secret, signers[0]).Extend(signers[2]).Extend(signers[1]), secret.Lock(), dir
}

// mutate applies ops to a deep copy of key, two bytes per edit: a kind
// (flip a bit, edit the path, truncate, reorder signatures, cut a
// signature short) and its argument.
func mutate(key Hashkey, ops []byte) Hashkey {
	k := key.Clone()
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0]%5, int(ops[1])
		switch op {
		case 0: // flip one bit of the secret or of a signature
			if arg < 32 {
				k.Secret[arg] ^= 1 << (arg % 8)
			} else if len(k.Sigs) > 0 {
				s := k.Sigs[arg%len(k.Sigs)]
				if len(s) > 0 {
					s[arg%len(s)] ^= 1 << (arg % 8)
				}
			}
		case 1: // move one path vertex, vertex 3 having no key
			if len(k.Path) > 0 {
				k.Path[arg%len(k.Path)] = digraph.Vertex(arg / 7 % 4)
			}
		case 2: // drop the outermost link, or cut the signature list
			if arg%2 == 0 && len(k.Path) > 0 && len(k.Sigs) > 0 {
				k.Path, k.Sigs = k.Path[1:], k.Sigs[1:]
			} else if len(k.Sigs) > 0 {
				k.Sigs = k.Sigs[:arg/2%len(k.Sigs)]
			}
		case 3: // swap two signatures
			if n := len(k.Sigs); n > 0 {
				i, j := arg%n, arg/n%n
				k.Sigs[i], k.Sigs[j] = k.Sigs[j], k.Sigs[i]
			}
		case 4: // cut one signature short
			if len(k.Sigs) > 0 {
				i := arg % len(k.Sigs)
				k.Sigs[i] = k.Sigs[i][:arg%(len(k.Sigs[i])+1)]
			}
		}
	}
	return k
}

// FuzzVerifyCryptoExtended tampers with a valid 3-link chain and checks,
// with the cache cold, warm with the chain's inner suffix and warm with
// the whole chain, that the cached verifier reaches VerifyCrypto's
// decision and never caches a key it rejects.
func FuzzVerifyCryptoExtended(f *testing.F) {
	valid, lock, dir := fuzzChain(f)
	for _, seed := range [][]byte{
		nil,            // the valid chain
		{0, 3},         // a secret bit
		{0, 200},       // a signature bit
		{1, 0}, {1, 9}, // path edits
		{2, 0}, {2, 3}, // truncations
		{3, 1},         // reordered signatures
		{4, 40},        // a short signature
		{2, 0, 0, 100}, // a valid suffix, then a flipped bit
	} {
		f.Add(seed)
	}
	inner := Hashkey{Secret: valid.Secret, Path: valid.Path[1:], Sigs: valid.Sigs[1:]}
	f.Fuzz(func(t *testing.T, ops []byte) {
		key := mutate(valid, ops)
		want := key.VerifyCrypto(lock, 0, dir) == nil
		for _, warm := range []struct {
			name string
			with *Hashkey
		}{{"cold", nil}, {"warm-suffix", &inner}, {"warm-full", &valid}} {
			cache := NewVerifyCache(0)
			if warm.with != nil {
				if err := warm.with.VerifyCryptoExtended(lock, 0, dir, cache); err != nil {
					t.Fatalf("%s: warming: %v", warm.name, err)
				}
			}
			before := cache.Stats().Entries
			err := key.VerifyCryptoExtended(lock, 0, dir, cache)
			if (err == nil) != want {
				t.Fatalf("%s: cached verifier says %v, VerifyCrypto accepts=%v (path %v, %d sigs)",
					warm.name, err, want, key.Path, len(key.Sigs))
			}
			if err == nil {
				continue
			}
			if after := cache.Stats().Entries; after != before {
				t.Fatalf("%s: rejected key (%v) grew the cache %d -> %d", warm.name, err, before, after)
			}
			if pubs, perr := resolvePubs(nil, key.Path, dir); perr == nil && len(key.Sigs) == len(key.Path) {
				d := chainDigest(key.Secret, lock, key.Path, key.Sigs, pubs)
				_, hot := cache.hot[d]
				_, cold := cache.cold[d]
				if hot || cold {
					t.Fatalf("%s: rejected key (%v) is cached", warm.name, err)
				}
			}
		}
	})
}

// TestVerifyBookkeepingAllocatesNothing pins the verification paths a
// conforming swap takes once its chains are known — a warm hit, the
// one-signature fast path, and seeding a chain the party built — at zero
// heap objects (their keys and digest encodings live on the stack), and
// the contract's copy of a hashkey at one.
func TestVerifyBookkeepingAllocatesNothing(t *testing.T) {
	valid, lock, dir := fuzzChain(t)
	inner := Hashkey{Secret: valid.Secret, Path: valid.Path[1:], Sigs: valid.Sigs[1:]}
	pubs, err := resolvePubs(nil, valid.Path, dir)
	if err != nil {
		t.Fatal(err)
	}
	full := chainDigest(valid.Secret, lock, valid.Path, valid.Sigs, pubs)

	warm := NewVerifyCache(0)
	if err := valid.VerifyCryptoExtended(lock, 0, dir, warm); err != nil {
		t.Fatal(err)
	}
	suffix := NewVerifyCache(0)
	if err := inner.VerifyCryptoExtended(lock, 0, dir, suffix); err != nil {
		t.Fatal(err)
	}
	seeded := NewVerifyCache(0)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"hit", func() error { return valid.VerifyCryptoExtended(lock, 0, dir, warm) }},
		{"fastpath", func() error {
			// Forget the full chain again, so every run takes the fast path.
			defer delete(suffix.hot, full)
			return valid.VerifyCryptoExtended(lock, 0, dir, suffix)
		}},
		{"seed", func() error { return valid.SeedVerified(lock, 0, dir, seeded) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := tc.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
	if s := suffix.Stats(); s.Fastpath < 100 || s.Misses != 1 {
		t.Errorf("fast path ran %d times (%d misses), want every run", s.Fastpath, s.Misses)
	}
	// What a contract keeps of a hashkey is one allocation.
	if allocs := testing.AllocsPerRun(100, func() { _ = valid.Clone() }); allocs != 1 {
		t.Errorf("Clone allocates %.1f objects, want 1", allocs)
	}
}
