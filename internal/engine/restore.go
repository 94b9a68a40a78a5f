package engine

import (
	"fmt"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// RecoveredState is the engine-shaped result of replaying a durable
// write-ahead log: everything NewRecovered needs to resurrect an Engine.
// internal/durable builds it — folding the event log is that package's
// job; turning the fold into a live engine is this one's.
//
// The in-flight resolution has already happened by the time this struct
// exists: orders whose swap was in flight at the crash arrive either as
// StatusPending (resumed — they re-enter the book and re-clear into
// fresh swaps) or as StatusSettled with Class NoDeal at the recovery
// tick (refunded).
type RecoveredState struct {
	// Identities are the persisted party keypairs, as ed25519 seeds.
	Identities []RecoveredIdentity
	// Assets are the minted assets with their last logged owner.
	Assets []RecoveredAsset
	// Orders is every order the log knows, in ID order.
	Orders []RecoveredOrder
	// NextOrder resumes the order ID sequence past everything logged.
	// Swap tags need no sequence: a swap is named by its minimum order ID.
	NextOrder uint64
	// Tick is the virtual tick the engine resumes at; a free clock is
	// advanced to it before Start.
	Tick vtime.Ticks
	// Shed restores the pre-crash shed counter.
	Shed int
}

// RecoveredIdentity is one persisted party keypair.
type RecoveredIdentity struct {
	Party string
	Seed  []byte
}

// RecoveredAsset is one minted asset and its current owner. Owner may be
// an "escrow:<swap>" pseudo-party for assets stranded in contract escrow
// by a deviant before the crash.
type RecoveredAsset struct {
	Minted
	Owner string
}

// RecoveredOrder is one order's recovered terminal (or pending) state.
type RecoveredOrder struct {
	ID            OrderID
	Offer         core.Offer
	Status        OrderStatus
	Reason        string
	Class         outcome.Class
	Swap          string
	Deviant       string
	SubmittedTick vtime.Ticks
	SettledTick   vtime.Ticks
}

// NewRecovered builds an engine from a recovered state: identities
// restored into the keyring, assets re-minted under their logged owners,
// orders re-booked (pending ones re-enter the book and will re-clear
// once Start runs), the order ID sequence resumed, metrics counters
// restored, and — on a free clock — the clock advanced to the recovery
// tick so post-recovery events continue the pre-crash tick line. The
// caller Starts the engine afterwards, exactly like one built with New.
//
// Wall-clock latency history does not survive a crash: restored metrics
// carry the pre-crash counts and outcome tallies, but the latency
// histogram restarts empty (tick-domain digests never depended on it).
func NewRecovered(cfg Config, st RecoveredState) (*Engine, error) {
	e := New(cfg)
	e.recovered = true
	if err := st.RestoreShared(*e.cfg.host); err != nil {
		return nil, err
	}
	for _, a := range st.Assets {
		e.minted = append(e.minted, a.Minted)
	}

	now := time.Now()
	for _, ro := range st.Orders {
		o := &order{
			id:            ro.ID,
			offer:         ro.Offer,
			status:        ro.Status,
			reason:        ro.Reason,
			class:         ro.Class,
			swap:          ro.Swap,
			deviant:       ro.Deviant,
			submittedAt:   now,
			settledAt:     now,
			submittedTick: ro.SubmittedTick,
			settledTick:   ro.SettledTick,
		}
		e.orders[o.id] = o
		if o.status == StatusPending {
			e.book.add(o)
		}
	}
	e.nextOrder = OrderID(st.NextOrder)
	e.agg.Restore(restoredCounts(st.Orders, st.Shed))
	return e, nil
}

// RestoreShared replays the part of a recovered state that lives outside
// any one engine's books into the host: identities into the keyring,
// assets re-minted into the registry under their logged owners, and the
// clock set to the recovery tick. It is the host owner's, once:
// NewRecovered applies it to the host New built, and a sharded rebuild to
// the host its engines share, handing each of them a state with
// Identities, Assets and Tick zero.
func (st RecoveredState) RestoreShared(h Host) error {
	for _, id := range st.Identities {
		if err := h.Keyring.Restore(chain.PartyID(id.Party), id.Seed); err != nil {
			return err
		}
	}
	for _, a := range st.Assets {
		if err := h.Registry.Chain(a.Chain).RegisterAsset(chain.Asset{
			ID: a.Asset, Amount: a.Amount,
		}, chain.PartyID(a.Owner)); err != nil {
			return fmt.Errorf("engine: recovery re-mint %s/%s: %w", a.Chain, a.Asset, err)
		}
	}
	// Pre-crash submit ticks stay in the past, where they belong. A paced
	// clock is the wall's and restarts at zero — tick continuity is a
	// property of a free one (see Advance).
	h.Scheduler.Advance(st.Tick)
	return nil
}

// restoredCounts rebuilds the aggregate counters a crash wiped, from the
// recovered orders: intake and terminal tallies, outcome classes, and
// the per-swap deviation accounting (a swap counts as sabotaged for all
// its orders if any of its parties deviated — same rule settle applies
// at settle time).
func restoredCounts(orders []RecoveredOrder, shed int) metrics.RestoredCounts {
	rc := metrics.RestoredCounts{
		Shed:       shed,
		Outcomes:   make(map[string]int),
		Deviations: make(map[string]int),
	}
	type swapAgg struct {
		orders   int
		deviants int
	}
	swaps := make(map[string]*swapAgg)
	for _, ro := range orders {
		rc.Submitted++
		switch ro.Status {
		case StatusRejected:
			rc.Rejected++
		case StatusSettled:
			rc.Outcomes[ro.Class.String()]++
			if ro.Swap != "" {
				rc.Cleared++
				sa := swaps[ro.Swap]
				if sa == nil {
					sa = &swapAgg{}
					swaps[ro.Swap] = sa
				}
				sa.orders++
				if ro.Deviant != "" {
					sa.deviants++
					rc.Deviations[ro.Deviant]++
				}
			}
		}
	}
	for range swaps {
		rc.SwapsStarted++
		rc.SwapsFinished++
	}
	for _, sa := range swaps {
		if sa.deviants > 0 {
			rc.Sabotaged += sa.orders
		}
	}
	return rc
}
