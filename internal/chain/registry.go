package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// regShards is the number of lock shards in the registry. Chain lookup is
// on the hot path of every contract call in a multi-swap run, so the chain
// map is sharded by name rather than guarded by one mutex.
const regShards = 32

// Registry is the set of chains a swap (or a whole clearing engine) spans.
// It provides the cross-chain aggregates the experiments measure and hosts
// the asset-reservation table that keeps concurrent swaps from
// double-committing the same asset.
type Registry struct {
	clock vtime.Clock

	// Both the chain map and the reservation table are sharded by chain
	// name: chain lookup runs on every contract call, and under thousands
	// of concurrent clearing rounds the reservation table sees the same
	// contention (it was the last registry-wide mutex).
	shards [regShards]struct {
		mu     sync.RWMutex
		chains map[string]*Chain

		// resMu guards this shard's slice of the reservation table:
		// {chain, asset} -> holder, for chains hashing to this shard.
		resMu sync.Mutex
		res   map[resKey]string
	}

	// modelMu guards the commitment-model factory, the modeled-chain
	// list the settlement pump drains, the scheduler it books on (the
	// clock, once SetCommitmentModels has checked it is one) and the
	// pump's per-tick dedupe.
	modelMu sync.Mutex
	modelFn func(name string) CommitmentModel
	modeled []*Chain
	pump    *sched.Virtual
	pumpAt  map[vtime.Ticks]struct{}
}

// Reservation errors.
var (
	// ErrAssetReserved means another in-flight swap holds the asset.
	ErrAssetReserved = errors.New("chain: asset reserved by another swap")
	// ErrAssetUnavailable means the asset does not exist or is not owned
	// directly by the reserving party (it may be escrowed or spent).
	ErrAssetUnavailable = errors.New("chain: asset not available to reserve")
)

// NewRegistry creates an empty registry whose chains share the clock.
func NewRegistry(clock vtime.Clock) *Registry {
	r := &Registry{clock: clock}
	for i := range r.shards {
		r.shards[i].chains = make(map[string]*Chain)
		r.shards[i].res = make(map[resKey]string)
	}
	return r
}

// shardOf is inline FNV-1a: Registry.Chain runs on every contract call,
// so the hash must not allocate.
func shardOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % regShards)
}

// Chain returns the named chain, creating it on first use.
func (r *Registry) Chain(name string) *Chain {
	s := &r.shards[shardOf(name)]
	s.mu.RLock()
	c, ok := s.chains[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	c, ok = s.chains[name]
	if !ok {
		c = New(name, r.clock)
		r.applyCommitmentModel(c, name)
		s.chains[name] = c
	}
	s.mu.Unlock()
	return c
}

// all returns every chain, unsorted.
func (r *Registry) all() []*Chain {
	var out []*Chain
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, c := range s.chains {
			out = append(out, c)
		}
		s.mu.RUnlock()
	}
	return out
}

// Names returns the sorted chain names.
func (r *Registry) Names() []string {
	chains := r.all()
	names := make([]string, len(chains))
	for i, c := range chains {
		names[i] = c.Name()
	}
	sort.Strings(names)
	return names
}

// TotalStorageBytes sums storage across all chains — the quantity bounded
// by Theorem 4.10.
func (r *Registry) TotalStorageBytes() int {
	total := 0
	for _, c := range r.all() {
		total += c.StorageBytes()
	}
	return total
}

// resKey names one asset in the reservation table.
type resKey struct {
	chain string
	asset AssetID
}

// Reserve marks an asset as committed to one in-flight swap (the holder).
// It fails if the asset is not currently owned directly by owner, or if a
// different holder already reserved it. Reservation is the engine-level
// coordination lock; the chain's own ownership checks remain the safety
// net underneath it. The table is sharded by chain name, so clearing
// rounds touching disjoint chains never contend.
func (r *Registry) Reserve(chainName string, asset AssetID, owner PartyID, holder string) error {
	c := r.Chain(chainName)
	s := &r.shards[shardOf(chainName)]
	key := resKey{chainName, asset}
	// The reservation check comes first and the shard stays locked across
	// the ownership read: an asset escrowed by an in-flight swap is still
	// reserved, and must report "reserved" (retry later), not
	// "unavailable" (permanent) — and two racing reservers must not both
	// pass the ownership check and overwrite each other.
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if h, exists := s.res[key]; exists && h != holder {
		return fmt.Errorf("%w: %s/%s held by %s", ErrAssetReserved, chainName, asset, h)
	}
	cur, ok := c.OwnerOf(asset)
	if !ok || cur.Kind != OwnerParty || cur.Party != owner {
		return fmt.Errorf("%w: %s/%s (owner %s, want party %s)",
			ErrAssetUnavailable, chainName, asset, cur, owner)
	}
	s.res[key] = holder
	return nil
}

// Release drops a reservation if (and only if) holder still holds it.
func (r *Registry) Release(chainName string, asset AssetID, holder string) {
	s := &r.shards[shardOf(chainName)]
	key := resKey{chainName, asset}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.res[key] == holder {
		delete(s.res, key)
	}
}

// ReservationHolder reports which swap holds an asset, if any.
func (r *Registry) ReservationHolder(chainName string, asset AssetID) (string, bool) {
	s := &r.shards[shardOf(chainName)]
	s.resMu.Lock()
	defer s.resMu.Unlock()
	h, ok := s.res[resKey{chainName, asset}]
	return h, ok
}

// Reservations returns the number of live reservations.
func (r *Registry) Reservations() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.resMu.Lock()
		n += len(s.res)
		s.resMu.Unlock()
	}
	return n
}

// VerifyAllLedgers reports whether every chain's hash chain is intact.
func (r *Registry) VerifyAllLedgers() bool {
	for _, c := range r.all() {
		if !c.VerifyLedger() {
			return false
		}
	}
	return true
}

// Snapshot returns ownership across all chains keyed by chain name.
func (r *Registry) Snapshot() map[string]map[AssetID]Owner {
	out := make(map[string]map[AssetID]Owner)
	for _, c := range r.all() {
		out[c.Name()] = c.Snapshot()
	}
	return out
}
