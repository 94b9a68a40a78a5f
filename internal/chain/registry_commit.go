package chain

import (
	"fmt"
	"sort"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// This file is the registry's commitment-model and per-chain-probe
// surface: a factory that assigns each chain its model at creation, one
// shared settlement pump that drains every modeled chain in canonical
// order, and chain-keyed delivery probes for heterogeneous-Δ adaptation.

// SetCommitmentModels installs a factory deciding each chain's
// commitment model: it is called once per chain at creation, and a nil
// return leaves that chain Instant. It must be called before any chain
// is created (models must be installed before a chain's first record),
// and the registry's clock must be a scheduler so settlement passes can
// be pumped at finalize/revert ticks.
func (r *Registry) SetCommitmentModels(f func(name string) CommitmentModel) error {
	if f == nil {
		return nil
	}
	if _, ok := r.clock.(tailScheduler); !ok {
		if _, ok := r.clock.(timerScheduler); !ok {
			return fmt.Errorf("chain: commitment models need a scheduling clock")
		}
	}
	if n := len(r.all()); n > 0 {
		return fmt.Errorf("chain: commitment models must be installed before any chain is created (%d exist)", n)
	}
	r.modelMu.Lock()
	defer r.modelMu.Unlock()
	r.modelFn = f
	if r.pumpAt == nil {
		r.pumpAt = make(map[vtime.Ticks]struct{})
	}
	return nil
}

// applyCreationHooks runs the model factory and the per-chain probe
// factory for a chain being created. Called with the chain's registry
// shard locked, before the chain is visible; neither hook path takes a
// shard lock, so the ordering is clean.
func (r *Registry) applyCreationHooks(c *Chain, name string) {
	r.modelMu.Lock()
	modelFn := r.modelFn
	r.modelMu.Unlock()
	if modelFn != nil {
		if m := modelFn(name); m != nil {
			if err := c.SetCommitmentModel(m, r.scheduleDue); err != nil {
				// Unreachable in practice: the chain is brand new (no
				// records) and onDue is non-nil. Fail loudly, not silently.
				panic(err)
			}
			if _, instant := m.(Instant); !instant {
				r.modelMu.Lock()
				// Insert sorted by name: the pump drains in canonical order
				// so downstream scheduler insertions are replay-stable.
				i := sort.Search(len(r.modeled), func(i int) bool {
					return r.modeled[i].Name() >= name
				})
				r.modeled = append(r.modeled, nil)
				copy(r.modeled[i+1:], r.modeled[i:])
				r.modeled[i] = c
				r.modelMu.Unlock()
			}
		}
	}
	r.chainProbeMu.Lock()
	if r.chainProbeFn != nil {
		if p := r.chainProbeFn(name); p != nil {
			if r.chainProbes == nil {
				r.chainProbes = make(map[string]DeliveryProbe)
			}
			r.chainProbes[name] = p
		}
	}
	r.chainProbeMu.Unlock()
}

// scheduleDue arms one settlement pass at tick t. All modeled chains
// share this pump: it runs at the commitment tail level (above protocol
// dispatch, shard clearing, the escalation sweep, and the coordinator)
// on a single stripe, and drains every modeled chain in sorted-name
// order — so the finalize/revert notifications of a tick, and the
// scheduler insertions they cause, occur in one deterministic sequence
// regardless of how the tick's appends interleaved across stripes.
func (r *Registry) scheduleDue(t vtime.Ticks) {
	r.modelMu.Lock()
	if r.pumpAt == nil {
		r.pumpAt = make(map[vtime.Ticks]struct{})
	}
	if _, dup := r.pumpAt[t]; dup {
		r.modelMu.Unlock()
		return
	}
	r.pumpAt[t] = struct{}{}
	r.modelMu.Unlock()
	run := func() {
		r.modelMu.Lock()
		delete(r.pumpAt, t)
		chains := append([]*Chain(nil), r.modeled...)
		r.modelMu.Unlock()
		now := r.clock.Now()
		if now < t {
			now = t
		}
		for _, c := range chains {
			c.SettleCommitments(now)
		}
	}
	if ts, ok := r.clock.(tailScheduler); ok {
		ts.AtTailN(t, commitLevel, 0, run)
		return
	}
	if s, ok := r.clock.(timerScheduler); ok {
		s.At(t, run)
	}
}

// SettleAll forces a settlement pass over every modeled chain at the
// clock's current tick (tests and shutdown sweeps).
func (r *Registry) SettleAll() {
	r.modelMu.Lock()
	chains := append([]*Chain(nil), r.modeled...)
	r.modelMu.Unlock()
	now := r.clock.Now()
	for _, c := range chains {
		c.SettleCommitments(now)
	}
}

// ModeledChains returns the names of chains carrying a non-Instant
// commitment model, in canonical (sorted) order.
func (r *Registry) ModeledChains() []string {
	r.modelMu.Lock()
	names := make([]string, len(r.modeled))
	for i, c := range r.modeled {
		names[i] = c.Name()
	}
	r.modelMu.Unlock()
	return names
}

// SetChainProbeFactory installs a factory building one delivery probe
// per chain. It applies to chains created later and (immediately) to
// chains that already exist; a nil return skips that chain.
func (r *Registry) SetChainProbeFactory(f func(name string) DeliveryProbe) {
	r.chainProbeMu.Lock()
	r.chainProbeFn = f
	r.chainProbeMu.Unlock()
	if f == nil {
		return
	}
	for _, c := range r.all() {
		name := c.Name()
		r.chainProbeMu.Lock()
		if _, exists := r.chainProbes[name]; !exists {
			if p := f(name); p != nil {
				if r.chainProbes == nil {
					r.chainProbes = make(map[string]DeliveryProbe)
				}
				r.chainProbes[name] = p
			}
		}
		r.chainProbeMu.Unlock()
	}
}

// ChainDeliveryProbe returns the named chain's probe, or nil. Feeding a
// per-chain probe is in addition to — never instead of — the global one.
func (r *Registry) ChainDeliveryProbe(name string) DeliveryProbe {
	r.chainProbeMu.RLock()
	p := r.chainProbes[name]
	r.chainProbeMu.RUnlock()
	return p
}
