package engine

import (
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// EventKind discriminates write-ahead-log events. Kinds are stable
// strings, not iota constants: they are the on-disk schema.
type EventKind string

// Write-ahead-log event kinds.
const (
	// EvIdentity: a party's signing key, logged as its ed25519 seed (Party,
	// Seed) by builds whose keys depended on intake order. Nothing writes
	// it now that a key derives from the engine seed and the party's name;
	// the fold accepts and ignores it in logs those builds wrote.
	EvIdentity EventKind = "identity"
	// EvMinted: an unseen asset was deposited at intake; Chain, Asset,
	// Amount, Party (the owner).
	EvMinted EventKind = "minted"
	// EvBooked: an order entered the pending book; Order, Offer.
	EvBooked EventKind = "booked"
	// EvCleared: a clearing round matched orders into a swap and
	// dispatched it; Swap, Orders.
	EvCleared EventKind = "cleared"
	// EvPrepared: AC3-style prepare record, logged by a cross-shard
	// coordinator after a group's reservations are ALL held and before
	// the swap commits (EvCleared); Swap, Orders, Count (distinct shards
	// the swap spans). A prepared-but-never-cleared swap folds to
	// pending orders — its reservations died with the crash, so the
	// prepare is refunded and the orders resume.
	EvPrepared EventKind = "prepared"
	// EvReserved: the swap acquired an asset reservation; Swap, Chain,
	// Asset.
	EvReserved EventKind = "reserved"
	// EvReleased: the swap released an asset reservation at completion;
	// Swap, Chain, Asset, Party (the asset's post-swap owner, or an
	// "escrow:<swap>" pseudo-party when the asset ended stranded in
	// contract escrow).
	EvReleased EventKind = "released"
	// EvPhase: a swap's protocol run crossed a coarse phase boundary
	// (start, escrow, reveal); Swap, Phase, Deadline.
	EvPhase EventKind = "phase"
	// EvSettled: an order settled; Order, Swap, Class, Deviant, with Tick
	// holding the swap's virtual settle tick.
	EvSettled EventKind = "settled"
	// EvRejected: an order was rejected; Order, Reason.
	EvRejected EventKind = "rejected"
	// EvShed: arrivals were dropped before intake; Count.
	EvShed EventKind = "shed"
	// EvKilled: the engine was killed (crash-model shutdown); Tick is the
	// cut — recovery replays nothing stamped after it.
	EvKilled EventKind = "killed"
	// EvReverted: a chain reorg rolled back one of the swap's records
	// before it reached confirmation depth; Swap, Chain, Phase (the
	// reverted record's kind name). The protocol run re-settles or
	// refunds on its own — the event exists so recovery can count how
	// much of a swap's trajectory was reorg-disturbed.
	EvReverted EventKind = "reverted"
)

// Event is one durable engine state transition. Exactly the fields the
// kind documents are set; everything else is zero and omitted from JSON.
// Tick is always the virtual-time stamp of the transition — virtual, not
// wall, so a deterministic run's event log (filtered by a cut tick) is a
// pure function of the schedule.
type Event struct {
	Kind EventKind   `json:"kind"`
	Tick vtime.Ticks `json:"tick"`

	Party string `json:"party,omitempty"`
	// Seed is set only on an EvIdentity that an older build wrote.
	Seed []byte `json:"seed,omitempty"`

	Order  OrderID     `json:"order,omitempty"`
	Offer  *core.Offer `json:"offer,omitempty"`
	Orders []OrderID   `json:"orders,omitempty"`

	Swap    string `json:"swap,omitempty"`
	Class   int    `json:"class,omitempty"`
	Deviant string `json:"deviant,omitempty"`
	Reason  string `json:"reason,omitempty"`

	Chain  string        `json:"chain,omitempty"`
	Asset  chain.AssetID `json:"asset,omitempty"`
	Amount uint64        `json:"amount,omitempty"`

	Phase    string      `json:"phase,omitempty"`
	Deadline vtime.Ticks `json:"deadline,omitempty"`

	Count int `json:"count,omitempty"`
}

// Store is the engine's durability hook: every state transition the
// engine would need to rebuild itself after a crash is appended as one
// Event. nil Store keeps the engine fully in-memory (the historical
// behavior).
//
// Append must be safe for concurrent use, must not block for long, and
// must never call back into the engine: it runs on the intake, clearing,
// and settle paths, sometimes with engine locks held. It returns no
// error — a store that fails should record the failure internally and
// surface it when closed; the engine has no useful response to a failed
// append mid-flight.
//
// Every append runs inside a scheduler event. A store that also has a
// SealOn(*sched.Virtual) method is handed the engine's scheduler when the
// engine is built, so that it can batch a tick's appends into one write at
// sched.TopLevel of that tick (durable.Store does). Such a store's log
// trails the engine by up to one tick: Order, Orders and Drain read the
// engine off the timeline and can report a status whose frame is not yet
// written, which a kill -9 before the seal takes back. Stop closes the
// scheduler and then unbinds the store, which writes what is pending.
type Store interface {
	Append(ev Event)
}

// logEvent appends ev to the configured store, if any.
func (e *unit) logEvent(ev Event) {
	if e.cfg.Store != nil {
		e.cfg.Store.Append(ev)
	}
}
