package engine

import (
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// RecoveredState is the engine-shaped result of replaying a durable
// write-ahead log: everything NewRecovered needs to resurrect an Engine,
// onto any shard count.
// internal/durable builds it — folding the event log is that package's
// job; turning the fold into a live engine is this one's.
//
// The in-flight resolution has already happened by the time this struct
// exists: orders whose swap was in flight at the crash arrive either as
// StatusPending (resumed — they re-enter the book and re-clear into
// fresh swaps) or as StatusSettled with Class NoDeal at the recovery
// tick (refunded).
type RecoveredState struct {
	// Assets are the minted assets with their last logged owner.
	Assets []RecoveredAsset
	// Orders is every order the log knows, in ID order.
	Orders []RecoveredOrder
	// NextOrder resumes the order ID sequence past everything logged.
	// Swap tags need no sequence: a swap is named by its minimum order ID.
	NextOrder uint64
	// Tick is the virtual tick the engine resumes at; the clock is
	// advanced to it before Start.
	Tick vtime.Ticks
	// Shed restores the pre-crash shed counter.
	Shed int
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

// restore books a unit's share of a recovered state: its orders (pending
// ones re-enter the book and re-clear once Start runs), its ID sequence
// resumed at next, and the aggregate counters rebuilt from those orders,
// with shed on top.
func (e *unit) restore(orders []RecoveredOrder, next OrderID, shed int) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ro := range orders {
		o := e.newOrder()
		*o = order{
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
	e.nextOrder = next
	e.agg.Restore(restoredCounts(orders, shed))
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
