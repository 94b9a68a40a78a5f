// Package durable gives the clearing engine crash durability: an
// append-only, checksummed, segment-rotating write-ahead log of engine
// events, periodic snapshots that truncate the log, and a Recover path
// that folds snapshot-plus-tail back into a running engine — resuming or
// refunding every swap that was in flight at the crash.
//
// The division of labor with internal/engine: the engine emits Events
// (engine.Store interface) and knows how to resurrect itself from an
// engine.RecoveredState; this package owns everything in between — disk
// framing, torn-tail tolerance, the order-insensitive fold, and the
// resume-vs-refund policy.
package durable

import (
	"slices"
	"sort"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// State is the fold of a WAL event stream: everything recovery needs,
// keyed so that folding is insensitive to the append interleaving of
// events from different engine goroutines. It is the snapshot payload,
// so every field is JSON-serializable.
//
// Order-insensitivity is load-bearing: worker-side events carry virtual
// tick stamps (a pure function of the schedule) but their append ORDER
// races across swaps, and a cut-tick filter can drop events from the
// middle of the file. Each apply therefore only ever moves an order or
// swap forward in a rank order (pending < cleared < terminal;
// start < escrow < reveal) and resolves asset-ownership conflicts by
// (tick, swap) recency — never by file position.
type State struct {
	// Assets maps "chain/asset" → minted asset and its current owner.
	Assets map[string]*AssetState `json:"assets,omitempty"`
	// Orders maps order ID → recovered order state.
	Orders map[engine.OrderID]OrderState `json:"orders,omitempty"`
	// Swaps maps swap tag → in-flight swap progress.
	Swaps map[string]SwapState `json:"swaps,omitempty"`
	// Shed is the cumulative pre-intake shed count.
	Shed int `json:"shed,omitempty"`
	// Reverts is the cumulative commitment-model reorg revert count — a
	// commutative counter (order-insensitive by construction), kept so a
	// recovered run's report still shows how reorg-disturbed the
	// pre-crash history was.
	Reverts int `json:"reverts,omitempty"`
	// MaxTick is the largest event tick folded — the tick recovery
	// resumes at when no explicit cut is given.
	MaxTick vtime.Ticks `json:"max_tick"`
	// Events counts folded events (snapshot folds carry their count
	// forward), reported as RecoveryStats.Replayed.
	Events int `json:"events"`
}

// AssetState is one minted asset and its most recently logged owner.
type AssetState struct {
	Chain  string        `json:"chain"`
	Asset  chain.AssetID `json:"asset"`
	Amount uint64        `json:"amount"`
	// Owner is a party ID, or an "escrow:<swap>" pseudo-party for assets
	// stranded in contract escrow by a completed-but-sabotaged swap.
	Owner string `json:"owner"`
	// OwnerTick/OwnerSwap order competing ownership updates: the greater
	// (tick, swap) pair wins, independent of file position.
	OwnerTick vtime.Ticks `json:"owner_tick"`
	OwnerSwap string      `json:"owner_swap,omitempty"`
}

// OrderState is one order's folded lifecycle. State.Orders holds it by
// value, inside the map's own storage: at 128 bytes it is the largest
// value a map keeps there, and a field added here makes every new order a
// heap object again (TestAppendAllocs fails then).
type OrderState struct {
	Offer         core.Offer  `json:"offer"`
	SubmittedTick vtime.Ticks `json:"submitted_tick"`
	// Status is "pending", "cleared", "settled", or "rejected".
	Status      string      `json:"status"`
	Reason      string      `json:"reason,omitempty"`
	Class       int         `json:"class,omitempty"`
	Swap        string      `json:"swap,omitempty"`
	Deviant     string      `json:"deviant,omitempty"`
	SettledTick vtime.Ticks `json:"settled_tick,omitempty"`
}

// SwapState is one dispatched swap's folded progress: which orders it
// holds and how far its protocol run got before the log ends.
type SwapState struct {
	Orders []engine.OrderID `json:"orders"`
	// Phase is the highest-ranked logged phase: "" (dispatched only),
	// "start", "escrow", or "reveal".
	Phase string `json:"phase,omitempty"`
	// Deadline is the swap's outermost timelock (max over parties), the
	// budget the refund rule checks.
	Deadline vtime.Ticks `json:"deadline,omitempty"`
	// Prepared marks an AC3 prepare record (cross-shard coordinator:
	// every involved asset reserved, commit not yet logged); Spans is
	// the number of shards the swap's assets live on. Prepared without a
	// commit (EvCleared) means the orders are still "pending" in the
	// fold and resume normally — the in-memory reservations died with
	// the crash, which is the refund of the prepare.
	Prepared bool `json:"prepared,omitempty"`
	Spans    int  `json:"spans,omitempty"`
}

// NewState returns an empty fold.
func NewState() *State {
	return &State{
		Assets: make(map[string]*AssetState),
		Orders: make(map[engine.OrderID]OrderState),
		Swaps:  make(map[string]SwapState),
	}
}

// Clone returns a deep copy of the fold that shares no map, slice or
// pointer with s, equal to what a snapshot round trip of s would read
// back. A field added to State or to a type it holds by reference is
// copied here too (the clone test compares against the JSON round trip).
func (s *State) Clone() *State {
	out := &State{
		Assets:  make(map[string]*AssetState, len(s.Assets)),
		Orders:  make(map[engine.OrderID]OrderState, len(s.Orders)),
		Swaps:   make(map[string]SwapState, len(s.Swaps)),
		Shed:    s.Shed,
		Reverts: s.Reverts,
		MaxTick: s.MaxTick,
		Events:  s.Events,
	}
	for k, a := range s.Assets {
		c := *a
		out.Assets[k] = &c
	}
	for id, o := range s.Orders {
		o.Offer.Give = slices.Clone(o.Offer.Give)
		out.Orders[id] = o
	}
	for tag, sw := range s.Swaps {
		sw.Orders = slices.Clone(sw.Orders)
		out.Swaps[tag] = sw
	}
	return out
}

// statusRank orders the order lifecycle; apply never moves backwards.
func statusRank(s string) int {
	switch s {
	case "cleared":
		return 1
	case "settled", "rejected":
		return 2
	default: // "", "pending"
		return 0
	}
}

// phaseRank orders swap phases; apply never moves backwards.
func phaseRank(p string) int {
	switch p {
	case "start":
		return 1
	case "escrow":
		return 2
	case "reveal":
		return 3
	default:
		return 0
	}
}

// order returns id's entry, or a pending one for an order not yet seen;
// the caller stores it back.
func (s *State) order(id engine.OrderID) OrderState {
	if o, ok := s.Orders[id]; ok {
		return o
	}
	return OrderState{Status: "pending"}
}

// assetChunk is how many asset records an assetSlab allocates at once.
const assetChunk = 64

// assetSlab hands out the records of new assets from chunks, so that a
// store's fold allocates, per new asset, only the "chain/asset" key it is
// stored under. Orders and swaps are stored by value; an asset is not,
// because its entry is updated on every release, and updating a value
// entry stores the key again — a key built on the heap for each release.
// A record is never freed, as the fold never drops an asset.
type assetSlab struct {
	free []AssetState
}

// next returns a zero record: from the slab, or on its own for a nil one.
func (p *assetSlab) next() *AssetState {
	if p == nil {
		return new(AssetState)
	}
	if len(p.free) == 0 {
		p.free = make([]AssetState, assetChunk)
	}
	a := &p.free[0]
	p.free = p.free[1:]
	return a
}

// Apply folds one event into the state. An EvIdentity, which only older
// builds wrote, counts as an event and changes nothing else: keys are
// derived, not recovered. The fold keeps ev's Orders and Offer.Give
// slices, not copies of them.
func (s *State) Apply(ev engine.Event) {
	s.apply(&ev, nil)
}

// apply is Apply with the records of new assets cut from slab.
func (s *State) apply(ev *engine.Event, slab *assetSlab) {
	s.Events++
	if ev.Tick > s.MaxTick {
		s.MaxTick = ev.Tick
	}
	switch ev.Kind {
	case engine.EvMinted:
		key := ev.Chain + "/" + string(ev.Asset)
		if s.Assets[key] == nil {
			a := slab.next()
			*a = AssetState{
				Chain: ev.Chain, Asset: ev.Asset, Amount: ev.Amount,
				Owner: ev.Party, OwnerTick: ev.Tick,
			}
			s.Assets[key] = a
		}
	case engine.EvBooked:
		o := s.order(ev.Order)
		if ev.Offer != nil {
			o.Offer = *ev.Offer
		}
		o.SubmittedTick = ev.Tick
		s.Orders[ev.Order] = o
	case engine.EvCleared:
		sw := s.Swaps[ev.Swap]
		sw.Orders = nil
		if len(ev.Orders) > 0 {
			sw.Orders = ev.Orders
		}
		s.Swaps[ev.Swap] = sw
		for _, id := range ev.Orders {
			if o := s.order(id); statusRank(o.Status) < statusRank("cleared") {
				o.Status = "cleared"
				o.Swap = ev.Swap
				s.Orders[id] = o
			}
		}
	case engine.EvPrepared:
		sw := s.Swaps[ev.Swap]
		sw.Prepared = true
		if ev.Count > sw.Spans {
			sw.Spans = ev.Count
		}
		s.Swaps[ev.Swap] = sw
	case engine.EvReserved:
		// Reservations are engine-lifetime state: a recovered engine
		// rebuilds them when resumed orders re-clear. Nothing to fold.
	case engine.EvReleased:
		if a := s.Assets[ev.Chain+"/"+string(ev.Asset)]; a != nil {
			if ev.Tick > a.OwnerTick || (ev.Tick == a.OwnerTick && ev.Swap > a.OwnerSwap) {
				a.Owner = ev.Party
				a.OwnerTick = ev.Tick
				a.OwnerSwap = ev.Swap
			}
		}
	case engine.EvPhase:
		sw := s.Swaps[ev.Swap]
		if phaseRank(ev.Phase) > phaseRank(sw.Phase) {
			sw.Phase = ev.Phase
		}
		if ev.Deadline > sw.Deadline {
			sw.Deadline = ev.Deadline
		}
		s.Swaps[ev.Swap] = sw
	case engine.EvSettled:
		o := s.order(ev.Order)
		o.Status = "settled"
		o.Class = ev.Class
		o.Swap = ev.Swap
		o.Deviant = ev.Deviant
		o.SettledTick = ev.Tick
		s.Orders[ev.Order] = o
	case engine.EvRejected:
		o := s.order(ev.Order)
		if ev.Offer != nil { // rejected at intake: never booked
			o.Offer = *ev.Offer
		}
		if statusRank(o.Status) < statusRank("rejected") {
			o.Status = "rejected"
			o.Reason = ev.Reason
			o.SettledTick = ev.Tick
		}
		s.Orders[ev.Order] = o
	case engine.EvShed:
		s.Shed += ev.Count
	case engine.EvReverted:
		// A chain reorg rolled back one of the swap's records. The run
		// re-settled or refunded on its own (those outcomes have their
		// own events); only the disturbance count is worth folding, and a
		// swap that was mid-reorg at the crash resolves exactly like any
		// other in-flight swap.
		s.Reverts++
	case engine.EvKilled:
		// The kill marker carries the cut tick for whoever reads the log;
		// the fold itself has nothing to record.
	}
}

// Resolve decides the fate of every order that was in flight (cleared
// but not terminal) when the log ends, mutating the state in place and
// returning the engine-shaped recovered state plus the resumed/refunded
// split. recTick is the tick the recovered engine resumes at; delta is
// the engine's Δ.
//
// The rule, per swap: a logged "reveal" phase means a secret may already
// be circulating — the conservative move is to refund, never to re-run.
// Otherwise the swap is safe to retry iff its timelock budget still
// clears 2Δ at the recovery tick; a swap that never logged a phase has
// no deadline on record and simply re-clears. Refunded orders settle
// NoDeal at recTick (every conforming party keeps its asset — the
// paper's status-quo ending); resumed orders return to the pending book
// and re-clear into fresh swaps.
func (s *State) Resolve(recTick vtime.Ticks, delta vtime.Duration) (engine.RecoveredState, int, int) {
	resumed, refunded := 0, 0
	for id, o := range s.Orders {
		if o.Status != "cleared" {
			continue
		}
		refund := false
		if sw, ok := s.Swaps[o.Swap]; ok {
			if phaseRank(sw.Phase) >= phaseRank("reveal") {
				refund = true
			} else if sw.Deadline > 0 && sw.Deadline-recTick < vtime.Ticks(2*delta) {
				refund = true
			}
		}
		if refund {
			o.Status = "settled"
			o.Class = int(outcome.NoDeal)
			o.SettledTick = recTick
			refunded++
		} else {
			o.Status = "pending"
			o.Swap = ""
			o.Deviant = ""
			resumed++
		}
		s.Orders[id] = o
	}

	rs := engine.RecoveredState{Tick: recTick, Shed: s.Shed}
	keys := make([]string, 0, len(s.Assets))
	for k := range s.Assets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := s.Assets[k]
		rs.Assets = append(rs.Assets, engine.RecoveredAsset{
			Minted: engine.Minted{Chain: a.Chain, Asset: a.Asset, Amount: a.Amount},
			Owner:  a.Owner,
		})
	}
	ids := make([]engine.OrderID, 0, len(s.Orders))
	for id := range s.Orders {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := s.Orders[id]
		ro := engine.RecoveredOrder{
			ID:            id,
			Offer:         o.Offer,
			Reason:        o.Reason,
			Class:         outcome.Class(o.Class),
			Swap:          o.Swap,
			Deviant:       o.Deviant,
			SubmittedTick: o.SubmittedTick,
			SettledTick:   o.SettledTick,
		}
		switch o.Status {
		case "settled":
			ro.Status = engine.StatusSettled
		case "rejected":
			ro.Status = engine.StatusRejected
		default:
			ro.Status = engine.StatusPending
		}
		rs.Orders = append(rs.Orders, ro)
		if uint64(id) > rs.NextOrder {
			rs.NextOrder = uint64(id)
		}
	}
	return rs, resumed, refunded
}
