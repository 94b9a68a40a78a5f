package core

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
)

// Keyring is a persistent store of party signing identities. A long-running
// clearing service creates each party's ed25519 keypair exactly once — at
// first intake — and every subsequent swap the party joins reuses it,
// rebound to whatever vertex the clearing round assigns. This takes key
// generation entirely off the per-swap clearing path: NewSetup with a
// keyring performs zero keygens for known parties, and the stored signer
// holds the expanded ed25519 private key, so the seed→keypair derivation
// happens once per party rather than per sign — rebinding via Signer.At
// (or hashkey.Presign) shares the already-derived key material.
//
// Every signer the keyring hands out carries a shared sign meter:
// Signs() reports the total ed25519 signatures produced under keyring
// identities, which Throughput turns into a signs-per-swap figure so
// signature-count regressions surface in benchmarks, and SignStats()
// splits them by where they ran (presigned ahead or inline).
//
// The paper's security argument is indifferent to key lifetime: hashkey
// verification binds signatures to the public keys in the published
// directory, and reusing a keypair across swaps only means the same
// directory entry appears in several plans (exactly how real chain
// identities behave). Keyring is safe for concurrent use.
type Keyring struct {
	mu   sync.RWMutex
	rand io.Reader
	keys map[chain.PartyID]*hashkey.Signer
	// onCreate, when set, observes every freshly generated identity with
	// the ed25519 seed it derives from — the durable-store hook that makes
	// identities recoverable. Called under the keyring lock; it must not
	// call back into the keyring.
	onCreate func(p chain.PartyID, seed []byte)
	// meter counts every Sign made under a keyring identity (any vertex
	// binding; see hashkey.Signer.SetMeter).
	meter hashkey.Meter
}

// NewKeyring creates an empty keyring drawing key material from r
// (crypto/rand when nil).
func NewKeyring(r io.Reader) *Keyring {
	if r == nil {
		r = hashkey.CryptoRand()
	}
	return &Keyring{rand: r, keys: make(map[chain.PartyID]*hashkey.Signer)}
}

// Ensure returns the party's canonical signer, generating it on first use.
// Generation happens under the keyring lock so a party's identity is
// created exactly once even under concurrent intake.
func (k *Keyring) Ensure(p chain.PartyID) (*hashkey.Signer, error) {
	k.mu.RLock()
	s, ok := k.keys[p]
	k.mu.RUnlock()
	if ok {
		return s, nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if s, ok := k.keys[p]; ok {
		return s, nil
	}
	// Draw the ed25519 seed explicitly instead of letting GenerateKey read
	// it: ed25519.GenerateKey consumes exactly SeedSize bytes, so this
	// leaves the randomness stream bit-identical to the pre-durability
	// behavior (deterministic replays are unchanged) while giving the
	// onCreate hook the persisted form of the identity.
	seed := make([]byte, ed25519.SeedSize)
	if _, err := io.ReadFull(k.rand, seed); err != nil {
		return nil, fmt.Errorf("core: keyring: drawing seed for %s: %w", p, err)
	}
	s, err := hashkey.NewSignerFromSeed(0, seed)
	if err != nil {
		return nil, fmt.Errorf("core: keyring: generating identity for %s: %w", p, err)
	}
	s.SetMeter(&k.meter)
	k.keys[p] = s
	if k.onCreate != nil {
		k.onCreate(p, seed)
	}
	return s, nil
}

// Signs reports the total number of ed25519 signatures produced by
// keyring identities since creation.
func (k *Keyring) Signs() uint64 { return k.meter.Stats().Signs }

// SignStats splits the keyring identities' signatures by where they ran:
// presigned ahead of need on a spare core, or inline on the caller.
func (k *Keyring) SignStats() hashkey.SignStats { return k.meter.Stats() }

// OnCreate registers a callback observing every identity generated from
// here on (party plus ed25519 seed). The durable engine wires this to its
// write-ahead log so identities survive a crash. Restore does not fire
// it — a restored identity is already logged.
func (k *Keyring) OnCreate(fn func(p chain.PartyID, seed []byte)) {
	k.mu.Lock()
	k.onCreate = fn
	k.mu.Unlock()
}

// Restore installs a previously persisted identity from its ed25519 seed.
// An identity the keyring already holds is left untouched (restore is
// idempotent); the onCreate hook is not invoked.
func (k *Keyring) Restore(p chain.PartyID, seed []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.keys[p]; ok {
		return nil
	}
	s, err := hashkey.NewSignerFromSeed(0, seed)
	if err != nil {
		return fmt.Errorf("core: keyring: restoring identity for %s: %w", p, err)
	}
	s.SetMeter(&k.meter)
	k.keys[p] = s
	return nil
}

// Has reports whether the party already has an identity.
func (k *Keyring) Has(p chain.PartyID) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	_, ok := k.keys[p]
	return ok
}

// Len returns the number of stored identities.
func (k *Keyring) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.keys)
}

// Parties returns the sorted party IDs with stored identities.
func (k *Keyring) Parties() []chain.PartyID {
	k.mu.RLock()
	out := make([]chain.PartyID, 0, len(k.keys))
	for p := range k.keys {
		out = append(out, p)
	}
	k.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
