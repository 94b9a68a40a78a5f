package engine

import (
	"time"
	"unsafe"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// OrderID identifies a submitted offer for its whole lifetime.
type OrderID uint64

// OrderStatus is an order's position in the intake → clearing → execution
// pipeline.
type OrderStatus int

// Order statuses.
const (
	// StatusPending: accepted, waiting for counterparties in the book.
	StatusPending OrderStatus = iota + 1
	// StatusExecuting: matched into a swap whose assets are reserved and
	// whose protocol run is queued or in flight.
	StatusExecuting
	// StatusSettled: the swap finished; Class holds the party's payoff.
	StatusSettled
	// StatusRejected: the engine refused the order; Reason says why.
	StatusRejected
)

var statusNames = map[OrderStatus]string{
	StatusPending:   "pending",
	StatusExecuting: "executing",
	StatusSettled:   "settled",
	StatusRejected:  "rejected",
}

// String names the status.
func (s OrderStatus) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return "unknown"
}

// order is the engine's mutable record of one offer (guarded by the
// engine mutex).
type order struct {
	id      OrderID
	offer   core.Offer
	status  OrderStatus
	reason  string
	class   outcome.Class
	swap    string // tag of the swap that absorbed the order
	deviant string // injected deviation strategy, "" for conforming

	submittedAt time.Time
	settledAt   time.Time
	// Tick-domain counterparts: wall times vary run to run, but under a
	// deterministic scheduler the tick stamps are replay-identical, so
	// digests and traces are built from these.
	submittedTick vtime.Ticks
	settledTick   vtime.Ticks
	// lockCost is the party's capital-lock integral in this order's swap:
	// escrowed amount × ticks locked, summed over the party's leaving
	// arcs (token-ticks; tick-domain, so replay-identical). Valid once
	// settled; 0 for orders restored from a WAL, whose spans died with
	// the crashed process.
	lockCost uint64

	// The order's place in the pending book (book.go); zero once it has
	// left. pos is its booking position, next/prev the whole-book FIFO,
	// pnext/pprev its party's chain.
	pos          uint64
	next, prev   *order
	pnext, pprev *order

	// e is the unit the order was posted to: the host's intake event
	// admits it there (see Engine.Submit).
	e *unit
}

// orderChunkLen is how many orders one chunk holds: as many as fit the
// 10 240-byte size class, past the runtime's 8-byte header (a 232-byte
// order fits 44, 24 bytes spare). An order is kept for the unit's life, so
// its chunk never frees and never moves.
const orderChunkLen = (10240 - 8) / int(unsafe.Sizeof(order{}))

// newOrder cuts a zeroed order from the unit's chunk, allocating the next
// chunk when this one is spent. The caller holds e.mu.
func (e *unit) newOrder() *order {
	if len(e.orderChunk) == 0 {
		e.orderChunk = make([]order, orderChunkLen)
	}
	o := &e.orderChunk[0]
	e.orderChunk = e.orderChunk[1:]
	return o
}

// OrderSnapshot is the caller-visible copy of an order's state.
type OrderSnapshot struct {
	ID     OrderID
	Party  string
	Status OrderStatus
	// Reason explains a rejection.
	Reason string
	// Swap is the tag of the swap that executed the order.
	Swap string
	// Class is the party's payoff class, valid once settled.
	Class outcome.Class
	// Deviant names the deviation strategy injected into this order's
	// party, empty for a conforming party. A party can only be left
	// Underwater if it deviated — the invariant the scenario harness
	// checks on every run.
	Deviant string
	// Latency is submit-to-settle wall time, valid once settled.
	Latency time.Duration
	// SubmittedTick and SettledTick are the virtual-tick counterparts of
	// the wall timestamps (SettledTick valid once settled); identical
	// across replays of a deterministic run.
	SubmittedTick vtime.Ticks
	SettledTick   vtime.Ticks
	// LockTickValue is the party's capital-lock integral (token-ticks)
	// in the swap that settled this order — see order.lockCost.
	LockTickValue uint64
}

func (o *order) snapshot() OrderSnapshot {
	s := OrderSnapshot{
		ID:            o.id,
		Party:         string(o.offer.Party),
		Status:        o.status,
		Reason:        o.reason,
		Swap:          o.swap,
		Class:         o.class,
		Deviant:       o.deviant,
		SubmittedTick: o.submittedTick,
		SettledTick:   o.settledTick,
		LockTickValue: o.lockCost,
	}
	if o.status == StatusSettled {
		s.Latency = o.settledAt.Sub(o.submittedAt)
	}
	return s
}
