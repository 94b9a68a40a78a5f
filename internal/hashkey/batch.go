package hashkey

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Batch collects pending hashkey-chain verifications and settles them in
// one pass. Batching wins twice over verifying each chain alone:
//
//   - Link dedup. Chains in one batch overlap heavily in practice — every
//     follower of a lock re-presents the same inner chain under one new
//     outer link — and identical (public key, message, signature) links
//     are verified once for the whole batch instead of once per chain.
//   - Pool parallelism. The deduped links are independent ed25519
//     verifications, so a batch spreads them across a worker pool. On a
//     single-core host this is neutral (see DESIGN.md §10); with cores to
//     spare it divides the batch's critical path.
//
// Failure isolation is the contract that makes batching safe: a batch
// that contains an invalid chain settles by falling back to individual
// verification for exactly the affected chains, so the error names the
// same link and vertex a lone VerifyCrypto would have named, the other
// chains in the batch still verify, and only fully-valid chains are
// seeded into the cache — a corrupt batch member can never poison it.
type Batch struct {
	dir     Directory
	workers int
	items   []BatchItem
}

// BatchItem is one pending verification. Err holds the outcome after
// Settle: nil if the chain verified.
type BatchItem struct {
	Key    Hashkey
	Lock   Lock
	Leader digraph.Vertex
	Err    error
}

// NewBatch returns an empty batch verifying against dir, settling on up
// to workers goroutines (workers <= 1 settles serially).
func NewBatch(dir Directory, workers int) *Batch {
	if workers < 1 {
		workers = 1
	}
	return &Batch{dir: dir, workers: workers}
}

// Add queues one chain verification and returns its item index.
func (b *Batch) Add(key Hashkey, lock Lock, leader digraph.Vertex) int {
	b.items = append(b.items, BatchItem{Key: key, Lock: lock, Leader: leader})
	return len(b.items) - 1
}

// Len reports the number of queued items.
func (b *Batch) Len() int { return len(b.items) }

// Items exposes the batch entries; after Settle each carries its outcome.
func (b *Batch) Items() []BatchItem { return b.items }

// link is one pending ed25519 verification, deduped across the batch.
type link struct {
	pub ed25519.PublicKey
	msg []byte
	sig []byte
	ok  bool
}

// chainLinks appends the (pub, msg, sig) triples of h's signature chain
// outermost-first: link i signs Sigs[i+1], the innermost signs the secret.
func chainLinks(h *Hashkey, pubs []ed25519.PublicKey, from, to int) []link {
	out := make([]link, 0, to-from)
	k := len(h.Path) - 1
	for i := from; i < to; i++ {
		msg := h.Secret[:]
		if i < k {
			msg = h.Sigs[i+1]
		}
		out = append(out, link{pub: pubs[i], msg: msg, sig: h.Sigs[i]})
	}
	return out
}

// linkKey is the dedup identity of a link. Public key (32 bytes) and
// signature (64 bytes) are fixed-size, so concatenation is unambiguous.
func linkKey(l link) string {
	buf := make([]byte, 0, len(l.pub)+len(l.sig)+len(l.msg))
	buf = append(buf, l.pub...)
	buf = append(buf, l.sig...)
	buf = append(buf, l.msg...)
	return string(buf)
}

// verifyLinks checks every link, setting ok per link, fanning out across
// up to workers goroutines when the batch is large enough to amortize the
// goroutine cost. It reports whether all links verified.
func verifyLinks(links []link, workers int) bool {
	const minPerWorker = 2
	if n := len(links) / minPerWorker; workers > n {
		workers = n
	}
	if workers <= 1 {
		allOK := true
		for i := range links {
			links[i].ok = ed25519.Verify(links[i].pub, links[i].msg, links[i].sig)
			allOK = allOK && links[i].ok
		}
		return allOK
	}
	var wg sync.WaitGroup
	chunk := (len(links) + workers - 1) / workers
	for lo := 0; lo < len(links); lo += chunk {
		hi := lo + chunk
		if hi > len(links) {
			hi = len(links)
		}
		wg.Add(1)
		go func(ls []link) {
			defer wg.Done()
			for i := range ls {
				ls[i].ok = ed25519.Verify(ls[i].pub, ls[i].msg, ls[i].sig)
			}
		}(links[lo:hi])
	}
	wg.Wait()
	for i := range links {
		if !links[i].ok {
			return false
		}
	}
	return true
}

// Settle verifies every queued chain and returns the number of failures;
// per-item outcomes land in Items. The cache (nil allowed) short-circuits
// chains — or chain suffixes — verified before, and is seeded with every
// chain (and computed suffix) that verified, exactly as the single-chain
// VerifyCryptoExtended would.
func (b *Batch) Settle(cache *VerifyCache) int {
	type pending struct {
		idx   int // index into b.items
		pubs  []ed25519.PublicKey
		digs  [][32]byte // full digest then suffix digests down to the cached one
		fresh int        // links 0..fresh-1 need verification
		slots []int      // indices into uniq for this item's fresh links
	}
	var (
		pend     []pending
		uniq     []link
		uniqIdx  = map[string]int{}
		failures = 0
	)

	for i := range b.items {
		it := &b.items[i]
		h := &it.Key
		if it.Err = h.checkStructure(it.Lock, it.Leader); it.Err != nil {
			failures++
			continue
		}
		pubs, err := resolvePubs(nil, h.Path, b.dir)
		if err != nil {
			it.Err = err
			failures++
			continue
		}
		p := pending{idx: i, pubs: pubs, fresh: len(h.Path)}
		if cache != nil {
			full := chainDigest(h.Secret, it.Lock, h.Path, h.Sigs, pubs)
			if cache.contains(full) {
				cache.noteHit()
				continue
			}
			p.digs = append(p.digs, full)
			// Walk inward until a cached suffix bounds the fresh prefix.
			for j := 1; j < len(h.Path); j++ {
				d := chainDigest(h.Secret, it.Lock, h.Path[j:], h.Sigs[j:], pubs[j:])
				if cache.contains(d) {
					p.fresh = j
					break
				}
				p.digs = append(p.digs, d)
			}
		}
		for _, l := range chainLinks(h, pubs, 0, p.fresh) {
			k := linkKey(l)
			slot, ok := uniqIdx[k]
			if !ok {
				slot = len(uniq)
				uniqIdx[k] = slot
				uniq = append(uniq, l)
			}
			p.slots = append(p.slots, slot)
		}
		pend = append(pend, p)
	}

	verifyLinks(uniq, b.workers)

	for _, p := range pend {
		it := &b.items[p.idx]
		ok := true
		for _, s := range p.slots {
			ok = ok && uniq[s].ok
		}
		if !ok {
			// Fallback isolation: re-walk just this chain individually so
			// the error attributes the exact bad link and vertex. Nothing
			// is cached for it.
			it.Err = it.Key.VerifyCrypto(it.Lock, it.Leader, b.dir)
			failures++
			if cache != nil {
				cache.noteMiss()
			}
			continue
		}
		if cache != nil {
			switch len(p.slots) {
			case 1:
				cache.noteFastpath()
			default:
				cache.noteMiss()
			}
			for _, d := range p.digs {
				cache.add(d)
			}
		}
	}
	return failures
}

// resolvePubs appends every path vertex's directory key to buf: a
// caller's stack array keeps a short path's keys off the heap.
func resolvePubs(buf []ed25519.PublicKey, path digraph.Path, dir Directory) ([]ed25519.PublicKey, error) {
	pubs := buf
	for _, v := range path {
		pub, ok := dir.Key(v)
		if !ok {
			return nil, unknownSigner(v)
		}
		pubs = append(pubs, pub)
	}
	return pubs, nil
}

func unknownSigner(v digraph.Vertex) error {
	return fmt.Errorf("%w: vertex %d", ErrUnknownSigner, v)
}
