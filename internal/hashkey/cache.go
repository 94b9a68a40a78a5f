package hashkey

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// VerifyCache memoizes successful signature-chain verifications so that
// re-verifying a hashkey — or verifying a one-link extension of an already
// verified hashkey — costs one signature check at most instead of |p|.
//
// Entries are content-addressed: the cache key is a SHA-256 digest over the
// secret, the hashlock, and every (vertex, public key, signature) triple of
// the chain, in order. A cached entry therefore asserts exactly "this
// secret, signed along this path by these keys, is a valid chain ending at
// this leader" — tampering with any byte of the secret, path, signatures,
// lock, or the directory keys in effect changes the digest and can never
// hit a stale entry. No negative results are cached, so the cache can turn
// an invalid hashkey into neither a false accept (the digest of a tampered
// key was never inserted) nor a false reject (misses fall back to the full
// chain walk).
//
// The protocol's unlock pattern makes this amortized O(1): when hashlock i
// opens on some arc with path p, the next party presents v+p on its own
// entering arcs; the suffix p was verified (and cached) by the previous
// contract, so only v's outer link needs a fresh ed25519 verification.
//
// VerifyCache is safe for concurrent use. Capacity is bounded with a
// two-generation (hot/cold) scheme: inserts go to the hot generation, and
// when it fills, it becomes the cold one and a fresh hot map starts —
// amortized O(1) per operation with memory bounded by 2·max entries.
type VerifyCache struct {
	mu   sync.Mutex
	max  int
	hot  map[[32]byte]struct{}
	cold map[[32]byte]struct{}

	// Counters are atomic so recording an outcome never re-takes mu: a
	// cache hit costs one mutex acquisition, not two.
	hits     atomic.Uint64
	fastpath atomic.Uint64
	misses   atomic.Uint64

	// batchWorkers > 1 lets miss-path chain walks spread their link
	// verifications across a worker pool (see SetBatchWorkers).
	batchWorkers atomic.Int32
}

// DefaultVerifyCacheEntries bounds each cache generation when NewVerifyCache
// is given a non-positive max. 64Ki digests ≈ 2 MiB per generation.
const DefaultVerifyCacheEntries = 1 << 16

// NewVerifyCache creates a cache holding at most max digests per
// generation (DefaultVerifyCacheEntries when max <= 0).
func NewVerifyCache(max int) *VerifyCache {
	if max <= 0 {
		max = DefaultVerifyCacheEntries
	}
	return &VerifyCache{max: max, hot: make(map[[32]byte]struct{})}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits counts verifications answered entirely from the cache (zero
	// signature checks).
	Hits uint64
	// Fastpath counts extensions verified with a single signature check
	// against a cached inner suffix.
	Fastpath uint64
	// Misses counts verifications that had to walk the full chain.
	Misses uint64
	// Entries is the number of live digests across both generations.
	Entries int
}

// Stats returns the current counters.
func (c *VerifyCache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.hot) + len(c.cold)
	c.mu.Unlock()
	return CacheStats{
		Hits:     c.hits.Load(),
		Fastpath: c.fastpath.Load(),
		Misses:   c.misses.Load(),
		Entries:  entries,
	}
}

// contains reports whether digest d is cached, promoting cold hits. The
// caller records the outcome (hit / fastpath / miss) once per
// verification, so probing both the full key and its suffix counts once.
func (c *VerifyCache) contains(d [32]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.hot[d]; ok {
		return true
	}
	if _, ok := c.cold[d]; ok {
		// Promote, removing the cold copy so Entries counts distinct
		// digests.
		delete(c.cold, d)
		c.hot[d] = struct{}{}
		c.rotateLocked()
		return true
	}
	return false
}

// SetBatchWorkers sets how many goroutines a cache-miss chain walk may
// fan its link verifications across (<= 1 keeps walks serial). The engine
// sets it to its worker count, so cold chains verify batch-style — all
// links in flight at once — instead of link by link.
func (c *VerifyCache) SetBatchWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.batchWorkers.Store(int32(n))
}

// BatchWorkers reports the current miss-path fan-out (minimum 1).
func (c *VerifyCache) BatchWorkers() int {
	if n := c.batchWorkers.Load(); n > 1 {
		return int(n)
	}
	return 1
}

func (c *VerifyCache) noteHit()      { c.hits.Add(1) }
func (c *VerifyCache) noteFastpath() { c.fastpath.Add(1) }
func (c *VerifyCache) noteMiss()     { c.misses.Add(1) }

// add inserts a verified digest, dropping any cold-generation copy so
// Entries counts distinct digests.
func (c *VerifyCache) add(d [32]byte) {
	c.mu.Lock()
	delete(c.cold, d)
	c.hot[d] = struct{}{}
	c.rotateLocked()
	c.mu.Unlock()
}

// rotateLocked starts a new hot generation when the current one is full.
// The caller must hold c.mu.
func (c *VerifyCache) rotateLocked() {
	if len(c.hot) >= c.max {
		c.cold = c.hot
		c.hot = make(map[[32]byte]struct{}, c.max/4)
	}
}

// chainDigest computes the content address of a (secret, path, sigs)
// chain bound to lock and to the public keys actually used to verify each
// link. All fields are either fixed-size or length-prefixed, so distinct
// inputs cannot collide by concatenation ambiguity. The encoding is
// written into one buffer and hashed by one sha256.Sum256; a chain of up
// to shortChain links with standard-size keys and signatures fits the
// stack buffer, a longer one grows it on the heap.
func chainDigest(secret Secret, lock Lock, path digraph.Path, sigs [][]byte, pubs []ed25519.PublicKey) [32]byte {
	var scratch [8 + SecretSize + sha256.Size + shortChain*(4+ed25519.PublicKeySize+4+SigSize)]byte
	buf := binary.LittleEndian.AppendUint64(scratch[:0], uint64(len(path)))
	buf = append(buf, secret[:]...)
	buf = append(buf, lock[:]...)
	for i, v := range path {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		buf = append(buf, pubs[i]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sigs[i])))
		buf = append(buf, sigs[i]...)
	}
	return sha256.Sum256(buf)
}

// shortChain is the longest chain whose verification bookkeeping (its
// path's keys, its digest's encoding) stays on the stack and whose Clone
// takes one allocation: a valid chain of any swap of up to sixteen
// parties.
const shortChain = 16

// SeedVerified records h in the cache as a valid chain for lock under the
// directory's keys, without checking any signature. The caller asserts
// validity by construction; the legitimate cases are
//
//   - a key the party just built itself: its own signature over a chain it
//     verified a moment ago (the follower's re-presentation of a broadcast
//     or observed unlock), and
//   - a key whose validity an on-chain contract already established.
//
// Structural checks still run, and an unknown signer still fails: seeding
// can extend trust only from material the directory actually names. A nil
// cache is a no-op. The payoff is that the party's own later
// re-presentations — and every contract verifying them — start from a
// pure cache hit (zero signature checks) instead of the one-signature
// fast path.
func (h Hashkey) SeedVerified(lock Lock, leader digraph.Vertex, dir Directory, cache *VerifyCache) error {
	if cache == nil {
		return nil
	}
	if err := h.checkStructure(lock, leader); err != nil {
		return err
	}
	var pubBuf [shortChain]ed25519.PublicKey
	pubs, err := resolvePubs(pubBuf[:0], h.Path, dir)
	if err != nil {
		return err
	}
	cache.add(chainDigest(h.Secret, lock, h.Path, h.Sigs, pubs))
	return nil
}

// VerifyExtended is Verify with an amortizing cache: structurally identical
// checks, but signature-chain work already recorded in the cache is not
// redone. A nil cache degrades to Verify. See VerifyCryptoExtended for the
// caching contract.
func (h Hashkey) VerifyExtended(lock Lock, d *digraph.Digraph, leader digraph.Vertex, dir Directory, cache *VerifyCache) error {
	if len(h.Path) != 0 && !d.IsPath(h.Path) {
		return fmt.Errorf("hashkey: %v is not a simple path in the swap digraph", h.Path)
	}
	return h.VerifyCryptoExtended(lock, leader, dir, cache)
}

// VerifyCryptoExtended checks everything VerifyCrypto does and returns the
// same accept/reject decision, but amortizes the signature-chain cost:
//
//   - the cheap structural checks (secret opens the lock, path ends at the
//     leader, chain length, all signers known) always run;
//   - if the full chain was verified before under the same keys, no
//     signature is re-checked;
//   - if only the inner suffix (the hashkey this one extends) is cached,
//     exactly one signature — the new outermost link — is checked;
//   - otherwise the whole chain is walked and every verified suffix is
//     seeded into the cache, so later extensions of any of them hit.
//
// Only valid chains are inserted, keyed by content (see VerifyCache), so a
// tampered key can never be accepted off a stale entry.
func (h Hashkey) VerifyCryptoExtended(lock Lock, leader digraph.Vertex, dir Directory, cache *VerifyCache) error {
	if cache == nil {
		return h.VerifyCrypto(lock, leader, dir)
	}
	if err := h.checkStructure(lock, leader); err != nil {
		return err
	}
	var pubBuf [shortChain]ed25519.PublicKey
	pubs, err := resolvePubs(pubBuf[:0], h.Path, dir)
	if err != nil {
		return err
	}

	full := chainDigest(h.Secret, lock, h.Path, h.Sigs, pubs)
	if cache.contains(full) {
		cache.noteHit()
		return nil
	}
	if len(h.Path) > 1 {
		suffix := chainDigest(h.Secret, lock, h.Path[1:], h.Sigs[1:], pubs[1:])
		if cache.contains(suffix) {
			// The inner chain is known valid under these exact keys: only
			// the new outermost link needs checking.
			if !ed25519.Verify(pubs[0], h.Sigs[1], h.Sigs[0]) {
				return fmt.Errorf("%w: link 0 (vertex %d)", ErrBadSignature, h.Path[0])
			}
			cache.noteFastpath()
			cache.add(full)
			return nil
		}
	}
	cache.noteMiss()
	return h.walkAndSeed(lock, pubs, full, cache)
}

// walkAndSeed is VerifyCryptoExtended's slow path: verify the whole chain —
// batch-style across the worker pool when the cache has one (all links are
// independent ed25519 checks) — then seed the cache with full and every
// suffix: a valid chain's suffixes are themselves valid chains ending at
// the same leader. Its receiver is its own copy, which the pending links
// point into, so only a miss moves a hashkey to the heap.
func (h Hashkey) walkAndSeed(lock Lock, pubs []ed25519.PublicKey, full [32]byte, cache *VerifyCache) error {
	k := len(h.Path) - 1
	links := chainLinks(&h, pubs, 0, k+1)
	if !verifyLinks(links, cache.BatchWorkers()) {
		for i := range links {
			if !links[i].ok {
				return fmt.Errorf("%w: link %d (vertex %d)", ErrBadSignature, i, h.Path[i])
			}
		}
	}
	cache.add(full)
	for i := 1; i <= k; i++ {
		cache.add(chainDigest(h.Secret, lock, h.Path[i:], h.Sigs[i:], pubs[i:]))
	}
	return nil
}
