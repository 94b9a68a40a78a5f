// Package hashkey implements the cryptographic machinery of the swap
// protocol: secrets and SHA-256 hashlocks, Ed25519 signing identities for
// the parties, and hashkeys — the (secret, path, signature-chain) triples
// of Section 4.1 that generalize hashed timelocks to multi-leader swaps.
//
// A hashkey for hashlock h on arc (u, v) is (s, p, σ): the secret with
// h = H(s), a simple path p = (u₀, ..., u_k) where u₀ = v is the presenting
// counterparty and u_k is the leader who generated s, and
// σ = sig(···sig(s, u_k), ..., u₀) — the secret signed by the leader, then
// each successive party wrapping the previous signature. A hashkey times
// out at (diam(D) + |p|)·Δ after the protocol start; the path-dependent
// deadline replaces the static timeout staircase of single-leader swaps.
package hashkey

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// SecretSize is the byte length of swap secrets.
const SecretSize = 32

// SigSize is the byte length of one signature link in a chain.
const SigSize = ed25519.SignatureSize

// Secret is a leader-generated preimage.
type Secret [SecretSize]byte

// Lock is the SHA-256 hashlock of a secret.
type Lock [sha256.Size]byte

// NewSecret draws a fresh secret from r (crypto/rand.Reader in production,
// a seeded reader in deterministic simulations).
func NewSecret(r io.Reader) (Secret, error) {
	var s Secret
	if err := s.Draw(r); err != nil {
		return Secret{}, err
	}
	return s, nil
}

// Draw fills s from r in place: NewSecret into storage the caller already
// has.
func (s *Secret) Draw(r io.Reader) error {
	if _, err := io.ReadFull(r, s[:]); err != nil {
		return fmt.Errorf("hashkey: drawing secret: %w", err)
	}
	return nil
}

// Lock returns the hashlock H(s).
func (s Secret) Lock() Lock { return sha256.Sum256(s[:]) }

// Matches reports whether the secret opens the lock.
func (s Secret) Matches(l Lock) bool { return s.Lock() == l }

// String renders a short hex prefix, safe for traces (it is the lock that
// is public; secrets render redacted).
func (s Secret) String() string { return "secret(…" + hex.EncodeToString(s[28:])[0:8] + ")" }

// String renders a short hex prefix of the lock.
func (l Lock) String() string { return hex.EncodeToString(l[:4]) }

// Signer is a party's signing identity. The stored ed25519.PrivateKey is
// the expanded (seed ‖ public key) form, derived once at construction —
// signing never re-derives the keypair from the seed. (The per-sign
// SHA-512 prefix expansion is internal to crypto/ed25519 and has no
// public precomputation hook; the derivation this cache elides is the
// seed→keypair step.)
type Signer struct {
	vertex digraph.Vertex
	pub    ed25519.PublicKey
	priv   ed25519.PrivateKey
	// meter, when set, counts every Sign call. Views returned by At share
	// the meter, so a keyring-owned counter sees all signs made under any
	// vertex binding of the identity.
	meter *Meter
	// pre, on a binding Presign made, is the swap's presigned table; Sign
	// consults only this vertex's slots. At never carries it over.
	pre *presigned
}

// NewSigner creates a signing identity for the given vertex using
// randomness from r.
func NewSigner(vertex digraph.Vertex, r io.Reader) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("hashkey: generating key for vertex %d: %w", vertex, err)
	}
	return &Signer{vertex: vertex, pub: pub, priv: priv}, nil
}

// NewSignerFromSeed builds the signing identity of a 32-byte ed25519 seed:
// the same seed always gives the same keypair, which is how a keyring
// derives a party's key from its name.
func NewSignerFromSeed(vertex digraph.Vertex, seed []byte) (*Signer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("hashkey: seed for vertex %d is %d bytes, want %d",
			vertex, len(seed), ed25519.SeedSize)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Signer{
		vertex: vertex,
		pub:    priv.Public().(ed25519.PublicKey),
		priv:   priv,
	}, nil
}

// Seed returns the 32-byte ed25519 seed this identity derives from (see
// NewSignerFromSeed).
func (s *Signer) Seed() []byte { return s.priv.Seed() }

// Vertex returns the vertex this identity signs for.
func (s *Signer) Vertex() digraph.Vertex { return s.vertex }

// Public returns the public key.
func (s *Signer) Public() ed25519.PublicKey { return s.pub }

// Sign signs msg. On a Presign binding it returns the presigned bytes
// when msg is one of its vertex's slot messages, and signs inline
// otherwise; either way the result is ed25519.Sign's.
func (s *Signer) Sign(msg []byte) []byte {
	if s.meter != nil {
		s.meter.signs.Add(1)
	}
	if s.pre != nil {
		if sig, ok := s.pre.take(s.vertex, msg); ok {
			return sig
		}
	}
	return ed25519.Sign(s.priv, msg)
}

// SetMeter installs a meter counting every Sign. Signature count is part
// of the protocol's cost model (each swap needs exactly one leader sign
// per secret plus one wrap per chain extension), so metering makes
// signature-count regressions visible in throughput reports.
func (s *Signer) SetMeter(m *Meter) { s.meter = m }

// At returns the same signing identity bound to a different vertex, by
// value: the caller keeps the binding where it likes (a cleared swap's
// plan holds one per vertex). Key material (and the sign meter) is shared,
// not copied: this is how a persistent party identity (one keypair for
// the party's lifetime) is rebound to whatever vertex the party is
// assigned in each cleared swap. A presigned table is not: its slots
// belong to one vertex.
func (s *Signer) At(vertex digraph.Vertex) Signer {
	return Signer{vertex: vertex, pub: s.pub, priv: s.priv, meter: s.meter}
}

// Directory holds the vertexes' public keys, indexed by vertex; contracts
// use it to verify signature chains. It is part of the public swap plan.
// A nil entry is a vertex without a key.
type Directory []ed25519.PublicKey

// NewDirectory builds a directory from signers.
func NewDirectory(signers ...*Signer) Directory {
	n := 0
	for _, s := range signers {
		n = max(n, int(s.vertex)+1)
	}
	d := make(Directory, n)
	for _, s := range signers {
		d[s.vertex] = s.pub
	}
	return d
}

// Key returns v's public key and whether the directory has one.
func (d Directory) Key(v digraph.Vertex) (ed25519.PublicKey, bool) {
	if v < 0 || int(v) >= len(d) || d[v] == nil {
		return nil, false
	}
	return d[v], true
}

// Errors returned by hashkey verification.
var (
	ErrWrongSecret   = errors.New("hashkey: secret does not match hashlock")
	ErrEmptyPath     = errors.New("hashkey: empty path")
	ErrWrongLeader   = errors.New("hashkey: path does not end at the secret's leader")
	ErrChainLength   = errors.New("hashkey: signature chain length does not match path")
	ErrBadSignature  = errors.New("hashkey: invalid signature in chain")
	ErrUnknownSigner = errors.New("hashkey: no public key for path vertex")
)

// Hashkey is the paper's (s, p, σ) triple. Sigs[i] is the signature by
// Path[i]: Sigs[k] (the leader's, k = len(Path)-1) signs the secret, and
// Sigs[i] for i < k signs Sigs[i+1]. The nested value the paper calls σ is
// Sigs[0]; the full chain is carried so each link can be verified.
type Hashkey struct {
	Secret Secret
	Path   digraph.Path
	Sigs   [][]byte
}

// New creates a leader's degenerate hashkey: path (leader), the leader's
// signature over the secret. This is the form leaders present on their own
// entering arcs at the start of Phase Two.
func New(secret Secret, leader *Signer) Hashkey {
	return Hashkey{
		Secret: secret,
		Path:   digraph.Path{leader.Vertex()},
		Sigs:   [][]byte{leader.Sign(secret[:])},
	}
}

// Extend returns the hashkey re-presented by v: path v + p, signature
// chain prefixed with v's signature over the current outermost signature.
// The receiver is unchanged.
func (h Hashkey) Extend(v *Signer) Hashkey {
	sigs := make([][]byte, 0, len(h.Sigs)+1)
	sigs = append(sigs, v.Sign(h.Sigs[0]))
	sigs = append(sigs, h.Sigs...)
	return Hashkey{
		Secret: h.Secret,
		Path:   h.Path.Prepend(v.Vertex()),
		Sigs:   sigs,
	}
}

// PathLen returns |p|, the number of arcs on the path. The timeout of a
// hashkey presented at time t is start + (diam + PathLen)·Δ.
func (h Hashkey) PathLen() int { return h.Path.Len() }

// Leader returns the final path vertex — the leader expected to have
// generated the secret.
func (h Hashkey) Leader() digraph.Vertex { return h.Path[len(h.Path)-1] }

// Presenter returns the first path vertex — the counterparty presenting
// the hashkey.
func (h Hashkey) Presenter() digraph.Vertex { return h.Path[0] }

// WireSize returns the serialized size in bytes (secret + path vertex ids
// + signatures), used for the communication-complexity accounting.
func (h Hashkey) WireSize() int {
	return SecretSize + 4*len(h.Path) + SigSize*len(h.Sigs)
}

// Verify checks the hashkey against a hashlock, the swap digraph, the
// expected leader, and the party directory:
//
//   - the secret opens the lock,
//   - the path is a simple path in d from presenter to leader,
//   - every link of the signature chain verifies under the corresponding
//     path vertex's public key.
//
// It returns nil when the hashkey is valid.
func (h Hashkey) Verify(lock Lock, d *digraph.Digraph, leader digraph.Vertex, dir Directory) error {
	if len(h.Path) != 0 && !d.IsPath(h.Path) {
		return fmt.Errorf("hashkey: %v is not a simple path in the swap digraph", h.Path)
	}
	return h.VerifyCrypto(lock, leader, dir)
}

// VerifyCrypto checks everything Verify does except membership of the
// path in a digraph. The Swap contract uses it together with its own path
// check, which must also admit the virtual (counterparty, leader) paths
// of the Section 4.5 broadcast optimization.
func (h Hashkey) VerifyCrypto(lock Lock, leader digraph.Vertex, dir Directory) error {
	if err := h.checkStructure(lock, leader); err != nil {
		return err
	}
	k := len(h.Path) - 1
	for i := 0; i <= k; i++ {
		pub, ok := dir.Key(h.Path[i])
		if !ok {
			return fmt.Errorf("%w: vertex %d", ErrUnknownSigner, h.Path[i])
		}
		var msg []byte
		if i == k {
			msg = h.Secret[:]
		} else {
			msg = h.Sigs[i+1]
		}
		if !ed25519.Verify(pub, msg, h.Sigs[i]) {
			return fmt.Errorf("%w: link %d (vertex %d)", ErrBadSignature, i, h.Path[i])
		}
	}
	return nil
}

// checkStructure runs the signature-independent validity checks shared by
// the cached and uncached verification paths: any check added here applies
// to both, which is what keeps their accept/reject decisions identical.
func (h Hashkey) checkStructure(lock Lock, leader digraph.Vertex) error {
	if len(h.Path) == 0 {
		return ErrEmptyPath
	}
	if !h.Secret.Matches(lock) {
		return ErrWrongSecret
	}
	if h.Leader() != leader {
		return fmt.Errorf("%w: path ends at %d, leader is %d", ErrWrongLeader, h.Leader(), leader)
	}
	if len(h.Sigs) != len(h.Path) {
		return fmt.Errorf("%w: %d signatures for %d path vertexes", ErrChainLength, len(h.Sigs), len(h.Path))
	}
	return nil
}

// Clone returns a deep copy, so contracts can retain hashkeys without
// aliasing caller-owned buffers. All signatures share one pre-sized
// backing buffer: a clone costs three allocations regardless of chain
// length instead of one per link.
func (h Hashkey) Clone() Hashkey {
	sigs := make([][]byte, len(h.Sigs))
	total := 0
	for _, s := range h.Sigs {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	for i, s := range h.Sigs {
		buf = append(buf, s...)
		sigs[i] = buf[len(buf)-len(s) : len(buf) : len(buf)]
	}
	return Hashkey{Secret: h.Secret, Path: h.Path.Clone(), Sigs: sigs}
}

// CryptoRand returns the process-wide cryptographic randomness source.
func CryptoRand() io.Reader { return rand.Reader }
