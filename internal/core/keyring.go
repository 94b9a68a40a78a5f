package core

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
)

// Keyring holds party signing identities. A party's ed25519 key is a
// pure function of the keyring's root and the party's name (Derive under
// DomainIdentity), derived the first time a hashkey swap binds the party
// and kept, expanded, for every later swap it joins, rebound to whatever
// vertex the clearing round assigns. So no clearing round pays a keygen
// for a known party, a party that only ever runs classic HTLCs derives
// none, and a key depends on nothing else the keyring was asked for: a
// recovered or resharded engine with the same root re-derives the same
// keys, and nothing needs to log them.
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
	root int64
	// err is the failure to read the root, reported by every Ensure.
	err  error
	keys map[chain.PartyID]*hashkey.Signer
	// meter counts every Sign made under a keyring identity (any vertex
	// binding; see hashkey.Signer.SetMeter).
	meter hashkey.Meter
}

// NewKeyring creates an empty keyring whose root is the first 64 bits of
// r (crypto/rand when nil).
func NewKeyring(r io.Reader) *Keyring {
	if r == nil {
		r = hashkey.CryptoRand()
	}
	k := &Keyring{keys: make(map[chain.PartyID]*hashkey.Signer)}
	var root [8]byte
	if _, err := io.ReadFull(r, root[:]); err != nil {
		k.err = fmt.Errorf("core: keyring: drawing root: %w", err)
	}
	k.root = int64(binary.LittleEndian.Uint64(root[:]))
	return k
}

// Ensure returns the party's canonical signer, deriving it on first use.
func (k *Keyring) Ensure(p chain.PartyID) (*hashkey.Signer, error) {
	if k.err != nil {
		return nil, k.err
	}
	k.mu.RLock()
	s, ok := k.keys[p]
	k.mu.RUnlock()
	if ok {
		return s, nil
	}
	var seed [ed25519.SeedSize]byte
	st := Derive(k.root, DomainIdentity, string(p))
	st.Read(seed[:])
	s, err := hashkey.NewSignerFromSeed(0, seed[:])
	if err != nil {
		return nil, fmt.Errorf("core: keyring: deriving identity for %s: %w", p, err)
	}
	s.SetMeter(&k.meter)
	k.mu.Lock()
	defer k.mu.Unlock()
	if prev, ok := k.keys[p]; ok {
		return prev, nil // a concurrent Ensure derived the same key first
	}
	k.keys[p] = s
	return s, nil
}

// Signs reports the total number of ed25519 signatures produced by
// keyring identities since creation.
func (k *Keyring) Signs() uint64 { return k.meter.Stats().Signs }

// SignStats splits the keyring identities' signatures by where they ran:
// presigned ahead of need on a spare core, or inline on the caller.
func (k *Keyring) SignStats() hashkey.SignStats { return k.meter.Stats() }

// Len returns the number of identities derived so far.
func (k *Keyring) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.keys)
}
