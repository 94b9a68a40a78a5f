package main

import (
	"sort"
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// traceEvent is one engine state transition as the span store saw it:
// the WAL event's identity and tick plus the wall instant of the append,
// relative to the store's creation.
type traceEvent struct {
	kind   string // engine.EventKind; phase events are "phase:<name>"
	swap   string
	order  engine.OrderID
	tick   int64
	wallNs int64
}

// spanStore is the traced run's engine.Store: every Append lands one
// traceEvent per (swap, order) pair in a preallocated slice, then is
// forwarded — and timed — to the real store when there is one (the
// durable workload). It lives entirely in the benchmark: the engine sees
// an ordinary Store.
type spanStore struct {
	mu      sync.Mutex
	began   time.Time
	events  []traceEvent
	inner   engine.Store
	appends []int64 // ns per forwarded Append
}

func newSpanStore(inner engine.Store, capacity int) *spanStore {
	s := &spanStore{began: time.Now(), inner: inner, events: make([]traceEvent, 0, capacity)}
	if inner != nil {
		s.appends = make([]int64, 0, capacity)
	}
	return s
}

// Append implements engine.Store.
func (s *spanStore) Append(ev engine.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	te := traceEvent{
		kind:   string(ev.Kind),
		swap:   ev.Swap,
		order:  ev.Order,
		tick:   int64(ev.Tick),
		wallNs: int64(time.Since(s.began)),
	}
	if ev.Kind == engine.EvPhase {
		te.kind = "phase:" + ev.Phase
	}
	if len(ev.Orders) == 0 {
		s.events = append(s.events, te)
	}
	for _, id := range ev.Orders { // cleared, prepared: one row per member order
		te.order = id
		s.events = append(s.events, te)
	}
	if s.inner != nil {
		t0 := time.Now()
		s.inner.Append(ev)
		s.appends = append(s.appends, int64(time.Since(t0)))
	}
}

// submitTimer decorates the intake surface to time every Submit. It
// embeds the whole target, so the optional interfaces loadgen probes for
// (per-party accounting) keep resolving exactly as on the bare engine.
type submitTimer struct {
	target
	mu  sync.Mutex
	dur []int64 // ns per Submit
}

func (t *submitTimer) Submit(o core.Offer) (engine.OrderID, error) {
	t0 := time.Now()
	id, err := t.target.Submit(o)
	d := int64(time.Since(t0))
	t.mu.Lock()
	t.dur = append(t.dur, d)
	t.mu.Unlock()
	return id, err
}

// span is one interval at a layer boundary. Spans of one swap share its
// tag as Trace and name their parent by ID (-1 for the swap's root).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Trace     string `json:"trace"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	StartTick int64  `json:"start_tick"`
	EndTick   int64  `json:"end_tick"`
}

// Span names. The layer a span belongs to is its prefix.
const (
	spanSwap     = "swap"             // first booking -> last order settled
	spanBookWait = "engine.book_wait" // first booking -> cleared into a swap
	spanRun      = "conc.run"         // cleared -> reservations released
	spanPhaseOne = "conc.phase_one"   // protocol start -> first secret revealed
	spanPhaseTwo = "conc.phase_two"   // first secret revealed -> released
	spanSettle   = "engine.settle"    // released -> last order settled
)

// swapTimeline is the per-swap raw material spans are cut from.
type swapTimeline struct {
	booked, cleared, start, reveal, released, settled instant
}

type instant struct {
	ns, tick int64
	ok       bool
}

func (i *instant) earliest(ns, tick int64) {
	if !i.ok || ns < i.ns {
		*i = instant{ns, tick, true}
	}
}

func (i *instant) latest(ns, tick int64) {
	if !i.ok || ns > i.ns {
		*i = instant{ns, tick, true}
	}
}

// orderTimeline is one order's booked -> cleared -> settled trail.
type orderTimeline struct {
	booked, rebooked, cleared instant
	swap                      string
}

// timelines folds the raw events into per-order and per-swap trails.
// An order's swap is known from its cleared (or settled) row; its
// booking row carries no tag, so bookings are joined through the order.
func timelines(events []traceEvent) (map[engine.OrderID]*orderTimeline, map[string]*swapTimeline) {
	orders := make(map[engine.OrderID]*orderTimeline)
	swaps := make(map[string]*swapTimeline)
	ord := func(id engine.OrderID) *orderTimeline {
		o := orders[id]
		if o == nil {
			o = &orderTimeline{}
			orders[id] = o
		}
		return o
	}
	sw := func(tag string) *swapTimeline {
		s := swaps[tag]
		if s == nil {
			s = &swapTimeline{}
			swaps[tag] = s
		}
		return s
	}
	for _, ev := range events {
		switch ev.kind {
		case string(engine.EvBooked):
			o := ord(ev.order)
			if o.booked.ok {
				// A second booking is the coordinator re-booking an
				// escalated order (sharded runs only).
				o.rebooked.earliest(ev.wallNs, ev.tick)
			} else {
				o.booked = instant{ev.wallNs, ev.tick, true}
			}
		case string(engine.EvCleared):
			o := ord(ev.order)
			o.cleared.earliest(ev.wallNs, ev.tick)
			o.swap = ev.swap
			sw(ev.swap).cleared.earliest(ev.wallNs, ev.tick)
		case "phase:start":
			s := sw(ev.swap)
			s.start.earliest(ev.wallNs, ev.tick)
			// In deterministic mode the run is prepared inside the
			// clearing tick, before the cleared record is written.
			s.cleared.earliest(ev.wallNs, ev.tick)
		case "phase:reveal":
			sw(ev.swap).reveal.earliest(ev.wallNs, ev.tick)
		case string(engine.EvReleased):
			sw(ev.swap).released.earliest(ev.wallNs, ev.tick)
		case string(engine.EvSettled):
			sw(ev.swap).settled.latest(ev.wallNs, ev.tick)
			ord(ev.order).swap = ev.swap
		}
	}
	for _, o := range orders {
		if o.swap != "" && o.booked.ok {
			swaps[o.swap].booked.earliest(o.booked.ns, o.booked.tick)
		}
	}
	return orders, swaps
}

// buildSpans cuts each complete swap trail into the span tree
//
//	swap ─┬─ engine.book_wait
//	      ├─ conc.run ─┬─ conc.phase_one
//	      │            └─ conc.phase_two
//	      └─ engine.settle
//
// in deterministic (tag) order. Swaps that never settled yield no spans.
func buildSpans(swaps map[string]*swapTimeline) []span {
	tags := make([]string, 0, len(swaps))
	for tag := range swaps {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var out []span
	add := func(parent int, tag, name string, from, to instant) int {
		if !from.ok || !to.ok {
			return -1
		}
		id := len(out)
		out = append(out, span{
			ID: id, Parent: parent, Trace: tag, Name: name,
			StartNs: from.ns, EndNs: to.ns, StartTick: from.tick, EndTick: to.tick,
		})
		return id
	}
	for _, tag := range tags {
		s := swaps[tag]
		if !s.booked.ok || !s.cleared.ok || !s.settled.ok {
			continue
		}
		root := add(-1, tag, spanSwap, s.booked, s.settled)
		add(root, tag, spanBookWait, s.booked, s.cleared)
		if run := add(root, tag, spanRun, s.cleared, s.released); run >= 0 {
			add(run, tag, spanPhaseOne, s.start, s.reveal)
			add(run, tag, spanPhaseTwo, s.reveal, s.released)
		}
		add(root, tag, spanSettle, s.released, s.settled)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover (children clipped to the parent and merged where
// they overlap, so shared time is subtracted once).
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		children := kids[s.ID]
		sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range children {
			from, to := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.Name] += (s.EndNs - s.StartNs) - covered
	}
	return self
}
