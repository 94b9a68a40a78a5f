// Package sched is the time layer of the swap system.
//
// The paper's protocol is specified entirely in Δ-scaled virtual time: one
// parameter, every deadline an integer multiple of it. This package is the
// one realization of that tick: a Scheduler tells the current virtual tick
// and runs callbacks at future ticks, with cancellable timers and no
// sleeping. Everything that runs — the swap runtime in conc, on its own for
// a Runner or shared by the clearing engine — is written against it.
//
// One implementation exists, with one dispatch path. Virtual is an event
// loop: it pops each (tick, level) batch whole, groups it into stripes by
// caller-supplied key and runs each stripe's events one at a time in
// scheduling order — the dispatcher running stripes itself and sending for
// helpers, if it has any, only when a batch outlasts a wake-up — with a
// barrier before the clock moves; every layer above is written against that
// one guarantee. What moves the clock is the only thing that varies:
//
//   - Free (NewVirtual): the clock jumps from event to event as fast as
//     callbacks drain, so a run is CPU-bound instead of wall-clock-bound
//     and a pure function of what was scheduled. A free clock is born
//     held: it does not move until whoever set the run up lets go.
//   - Paced (NewPaced): a tick is a configured wall duration, Now is read
//     off the wall, and no event runs before its wall due time. An event
//     that runs late — a loaded box — sees Now past its tick. The
//     production shape.
//
// The Hold mechanism is what makes Virtual safe to drive from outside the
// loop: work in flight on another goroutine (a runtime mid-setup, a load
// generator booking arrivals) holds the dispatcher still, so no event runs
// — and a free clock never jumps past a deadline — while the action that
// should beat it is pending.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Timer is a scheduled callback that can be cancelled before it runs.
type Timer interface {
	// Stop cancels the timer. It reports whether the cancellation
	// prevented the callback from running (false if it already ran or was
	// already stopped).
	Stop() bool
}

// Scheduler is the time source and timer service as the layers that only
// book work on it see it (load generators, the benchmark harness). Virtual
// is its one implementation, safe for concurrent use.
type Scheduler interface {
	vtime.Clock

	// At schedules fn to run at virtual tick t. Scheduling at or before
	// the current tick runs fn as soon as possible; time never moves
	// backwards. fn runs on an implementation-chosen goroutine and must
	// not block indefinitely; in particular it must not wait for another
	// stripe of its own (tick, level) batch, which may be queued behind
	// it on the same goroutine.
	At(t vtime.Ticks, fn func()) Timer

	// Schedule is At on storage the caller owns, on stripe key: e (idle,
	// typically a field of the record h points at) becomes the queue
	// entry for h.Fire, so booking allocates nothing. e is its own Timer.
	Schedule(e *Event, t vtime.Ticks, key uint64, h Handler)

	// Hold pins the dispatcher: while any hold is outstanding no event
	// runs, so a free clock does not advance. The returned release
	// function must be called exactly once; it is idempotent.
	Hold() func()
}

// DefaultTick is the default wall duration of one tick of a paced clock.
const DefaultTick = 2 * time.Millisecond

// ---------------------------------------------------------------------------
// Virtual: event-driven scheduler.

// Event states.
const (
	evIdle = iota // never scheduled (the zero Event)
	evPending
	evFired
	evStopped
)

// Handler is what a scheduled Event runs when it fires.
type Handler interface {
	Fire()
}

// funcHandler adapts a plain callback to Handler.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event is one queued callback and, at the same time, the Timer for it:
// Stop flips the event's own state under its scheduler's lock. At and its
// siblings allocate one per call; a runtime that already owns a record per
// scheduled thing embeds an Event in it and hands it to Schedule, so the
// record is the queue entry and nothing else is allocated. The scheduler
// never reuses an event that has left the queue, so a handle kept past
// firing can only ever see its own fired event; an owner may hand one of its
// own back to Schedule once it has fired (a Loop alternates between two).
// The zero value is an idle event; an Event must not be copied once
// scheduled.
type Event struct {
	v  *Virtual
	at vtime.Ticks
	// prio orders events within a tick: all prio-0 events of a tick run
	// before any prio-1 (tail) event. The clearing engine schedules its
	// clearing pass at tail priority so it observes the same
	// whole-tick-drained queue in serialized and parallel modes.
	prio  int8
	state uint8
	seq   int64
	key   uint64
	h     Handler
}

// before reports whether e runs ahead of o: by tick, then level, then
// scheduling order.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events in (tick, level, scheduling
// order).
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
	return top
}

// Virtual is a thread-safe discrete-event scheduler: a dispatcher goroutine
// pops the earliest (tick, level) batch once every outstanding hold is
// released — and, on a paced clock, once the wall has reached its tick —
// moves the clock to it, and runs it (itself counted as a hold, so cascades
// triggered by its callbacks all land before time moves again). Events are
// ordered by (tick, level, scheduling order); scheduling in the past means
// now; a stopped event is discarded when popped, without advancing time.
// Close (or RunUntil) stops the dispatcher.
type Virtual struct {
	mu   sync.Mutex
	cond *sync.Cond
	// now is the tick of the latest dispatched event, written under mu (by
	// the dispatcher) and read without it: Now is on the path of every
	// delivery, ledger append and trace note.
	now atomic.Int64
	// ran is the highest level dispatched at tick now, -1 while none has
	// been: how far a Loop woken mid-tick is behind the tick's ladder.
	ran    int8
	seq    int64
	queue  eventHeap
	holds  int
	born   bool // the birth hold of a free clock is not yet adopted
	closed bool
	// tick > 0 paces the clock: one tick per this much wall time since
	// start (on any clock, the zero of the time the dispatcher reads to
	// decide on help). alarm ends the dispatcher's sleep until the head
	// event is due.
	tick  time.Duration
	start time.Time
	alarm *time.Timer
	// waiting marks the dispatcher inside cond.Wait. It is cond's one
	// waiter, so a wake-up is a Signal, and skipped while it is running.
	waiting bool

	// Dispatch: each (tick, level) batch is grouped by stripe key and its
	// stripes are claimed one at a time — by the dispatcher, and by helpers
	// it wakes once the batch has outlasted a wake-up — each run in
	// scheduling order, with a barrier before the clock moves on. batch is
	// the running batch sorted by stripe, stripe i being
	// batch[starts[i]:starts[i+1]]; both are kept and reused.
	batch  []*Event
	starts []int32
	// cursor holds the running batch's stripe count in its high half and
	// the next unclaimed stripe in its low half; a claim is a CAS that adds
	// one while low < high. Invariant: the cursor reads exhausted (low ==
	// high) from the claim of a batch's last stripe until the next batch is
	// wholly built, because the Store that publishes a batch is the last
	// write of its build and the only one that makes a stripe claimable. So
	// a claim that succeeds, however late its helper woke, is on the batch
	// current at that instant, whole; one that fails has read nothing but
	// the cursor.
	cursor atomic.Uint64
	// left counts the running batch's stripes not yet reported done: the
	// barrier. Whoever brings it to zero releases the batch's one hold.
	left atomic.Int32
	// wake parks the helpers: one token rouses one, and carries when it was
	// sent, so that the helper measures how long help takes to arrive
	// (arrive, in ns, smoothed) — the one quantity the wake rule reads. Its
	// capacity is the helper count, zero when the dispatcher has no help.
	wake       chan time.Duration
	arrive     atomic.Int64
	helpers    sync.WaitGroup
	helperHook func() // tests: runs on a roused helper before it claims
	stats      Stats  // written by the dispatcher, under mu
	done       chan struct{}
}

// Stats counts what dispatch did, to show where a batch's work ran. Every
// scheduler counts; one without helpers runs every batch solo.
type Stats struct {
	Batches, Events, Stripes int64
	// SoloBatches ran entirely on the dispatcher; Wakes counts helpers
	// roused and HelpedStripes the stripes they ran.
	SoloBatches, Wakes, HelpedStripes int64
}

// Stats returns the dispatcher's counters so far.
func (v *Virtual) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

func (s Stats) String() string {
	return fmt.Sprintf("dispatch: %d batches, %d events, %d stripes; %d batches on the dispatcher alone, %d helper wake-ups, %d stripes run by helpers",
		s.Batches, s.Events, s.Stripes, s.SoloBatches, s.Wakes, s.HelpedStripes)
}

// NewVirtual returns a running free scheduler at tick 0: its clock jumps
// from event to event as fast as callbacks drain.
//
// The dispatcher pops a whole (tick, level) batch, groups it by stripe key
// (see AtKeyed) and runs the stripes itself, one claim at a time. It keeps
// min(workers, GOMAXPROCS) − 1 parked helpers — none for workers <= 1. Once
// the batch has run for longer than help takes to arrive — a time the
// scheduler measures — and stripes are still unclaimed, it rouses one,
// which claims from the same cursor; so a batch smaller than a wake-up
// never pays for one, and a long one gets every core. Events sharing a
// stripe run in scheduling order on whichever goroutine claimed the stripe;
// distinct stripes may run concurrently. One hold for the batch, released
// when its last stripe is done, is the barrier before the clock advances,
// so each stripe sees the same sequence whoever runs it while independent
// stripes — independent swaps, in the engine — can use every core.
//
// Stop has one rule: a batch is claimed when it is popped. Stop on any of
// its events reports false and the event runs, even if a same-tick sibling
// is the one calling Stop.
//
// The clock is born held, so that a run is a function of what was scheduled
// and not of how far the dispatcher got meanwhile: the first Hold adopts the
// birth hold instead of adding one, and its release lets the clock go.
// Whoever sets a run up — a load generator installing arrivals, a runtime
// preparing a swap — takes that Hold anyway; RunUntil, and a drain that
// found the clock still held, let go on their own.
func NewVirtual(workers int) *Virtual {
	return newVirtual(spareCores(workers), 0)
}

// NewPaced returns a running scheduler whose clock is the wall's: tick 0 is
// now and each tick lasts `tick` of wall time (DefaultTick if tick <= 0).
// Dispatch is NewVirtual's, helpers and all, except that no event runs
// before the wall reaches its tick. A paced clock moves whether or not
// anything is scheduled, so it is not born held.
func NewPaced(workers int, tick time.Duration) *Virtual {
	if tick <= 0 {
		tick = DefaultTick
	}
	return newVirtual(spareCores(workers), tick)
}

// spareCores is how many helpers a scheduler of this many workers keeps:
// one a core beside the dispatcher's. A helper beyond the core count adds
// no parallelism, only wake-ups that find no core to land on.
func spareCores(workers int) int {
	return max(min(workers, runtime.GOMAXPROCS(0))-1, 0)
}

// newVirtual starts a scheduler with `helpers` parked helpers (with none,
// the dispatcher runs every stripe itself); free and born held for tick 0,
// else paced.
func newVirtual(helpers int, tick time.Duration) *Virtual {
	v := &Virtual{done: make(chan struct{}), tick: tick, start: time.Now(), ran: -1}
	v.cond = sync.NewCond(&v.mu)
	if tick == 0 {
		v.holds, v.born = 1, true
	} else {
		v.alarm = time.AfterFunc(time.Hour, func() { v.releaseN(0) }) // wakes the dispatcher
		v.alarm.Stop()
	}
	v.wake = make(chan time.Duration, helpers) // a token per helper
	v.helpers.Add(helpers)
	for i := 0; i < helpers; i++ {
		go v.helper()
	}
	go v.loop()
	return v
}

// Now implements vtime.Clock: the tick of the latest dispatched event or,
// on a paced clock, the wall's tick when that is later — an event running
// late sees how late. Neither goes backwards, so Now does not.
func (v *Virtual) Now() vtime.Ticks {
	now := v.now.Load()
	if v.tick > 0 {
		if wall := int64(time.Since(v.start) / v.tick); wall > now {
			now = wall
		}
	}
	return vtime.Ticks(now)
}

// Tick returns the wall duration of one tick of a paced clock; zero means
// the clock is free.
func (v *Virtual) Tick() time.Duration { return v.tick }

// Advance moves a free clock forward to t, for a run that resumes an
// earlier one's tick line; events already queued keep their ticks. A paced
// clock is the wall's and restarts at zero: Advance leaves it alone.
func (v *Virtual) Advance(t vtime.Ticks) {
	v.mu.Lock()
	if v.tick == 0 && int64(t) > v.now.Load() {
		v.now.Store(int64(t))
		v.ran = -1
	}
	v.mu.Unlock()
}

// reach moves the clock to an event of tick t and level prio about to run.
// Called with v.mu held.
func (v *Virtual) reach(t vtime.Ticks, prio int8) {
	if int64(t) > v.now.Load() {
		v.now.Store(int64(t))
		v.ran = prio
	} else {
		v.ran = max(v.ran, prio)
	}
}

// passed reports whether dispatch at tick t has reached level: an event of
// that level or above has run at t.
func (v *Virtual) passed(t vtime.Ticks, level int8) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int64(t) == v.now.Load() && v.ran >= level
}

// At implements Scheduler. After Close the callback is silently dropped.
func (v *Virtual) At(t vtime.Ticks, fn func()) Timer {
	return v.timer(t, 0, 0, fn)
}

// AtKeyed is At with a stripe key: fn joins the stripe identified by key
// at tick t. Same-stripe events are serialized in scheduling order;
// distinct stripes may run concurrently on helpers, or one after another on
// the dispatcher, in no particular order — so fn must not wait for another
// stripe of its batch. Key 0 (what At uses) is the shared unkeyed stripe.
func (v *Virtual) AtKeyed(t vtime.Ticks, key uint64, fn func()) Timer {
	return v.timer(t, 0, key, fn)
}

// Schedule implements Scheduler: AtKeyed on storage the caller owns. e —
// idle, and typically a field of the record h points at — becomes the
// queue entry for h.Fire at tick t on stripe key, so scheduling allocates
// nothing. e is its own Timer (e.Stop). After Close the event is dropped,
// stopped.
func (v *Virtual) Schedule(e *Event, t vtime.Ticks, key uint64, h Handler) {
	v.schedule(e, t, 0, key, h)
}

// AtTail schedules fn at tail priority: it runs only after every normal
// event of tick t (including cascades scheduled for t while the tick is
// draining) has run. The clearing engine uses it so its per-tick clearing
// pass observes the same fully-drained queue however many helpers ran the
// tick.
func (v *Virtual) AtTail(t vtime.Ticks, fn func()) Timer {
	return v.timer(t, 1, 0, fn)
}

// AtTailN schedules fn at tail level `level` (≥ 1) with a stripe key.
// Levels extend AtTail into a ladder: all events of level k at tick t run
// (and fully drain, cascades included) before any event of level k+1, and
// within one level distinct stripe keys may run concurrently on helpers.
// The sharded engine uses the ladder to order one tick's phases — protocol
// events (level 0, via At/AtKeyed), per-shard clearing (level 1, keyed by
// shard), the cross-shard escalation sweep (level 2), and coordinator
// clearing (level 3) — with a determinism barrier between each phase.
// Chain commitment events run at level 4; TopLevel is the last one open.
func (v *Virtual) AtTailN(t vtime.Ticks, level int8, key uint64, fn func()) Timer {
	return v.timer(t, max(level, 1), key, fn)
}

// TopLevel is the highest tail level open to callers: its events run after
// every other level of their tick and before RunUntil's stop, the one event
// at math.MaxInt8. The WAL seals each tick's appends there.
const TopLevel int8 = math.MaxInt8 - 1

// ScheduleTail is AtTailN on storage the caller owns, as Schedule is
// AtKeyed: e becomes the queue entry for h.Fire at tail level `level` (≥ 1)
// of tick t on stripe key, and scheduling allocates nothing. It reports
// whether e was queued; after Close (or RunUntil's stop) it is dropped,
// stopped.
func (v *Virtual) ScheduleTail(e *Event, t vtime.Ticks, level int8, key uint64, h Handler) bool {
	return v.schedule(e, t, max(level, 1), key, h)
}

// timer schedules fn on a fresh event and returns the event as its Timer.
func (v *Virtual) timer(t vtime.Ticks, prio int8, key uint64, fn func()) Timer {
	e := new(Event)
	v.schedule(e, t, prio, key, funcHandler(fn))
	return e
}

// schedule queues e and reports whether it did: a closed scheduler drops
// it, stopped.
func (v *Virtual) schedule(e *Event, t vtime.Ticks, prio int8, key uint64, h Handler) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	e.v = v
	if v.closed {
		e.state = evStopped
		return false
	}
	if now := v.Now(); t < now {
		t = now
	}
	v.seq++
	e.at, e.prio, e.seq, e.key, e.h, e.state = t, prio, v.seq, key, h, evPending
	v.queue.push(e)
	if v.waiting {
		v.cond.Signal()
	}
	return true
}

// Stop implements Timer: it cancels an event still queued. An idle event
// (never scheduled) and one whose batch has been popped report false.
func (e *Event) Stop() bool {
	if e.v == nil {
		return false
	}
	e.v.mu.Lock()
	defer e.v.mu.Unlock()
	if e.state != evPending {
		return false
	}
	e.state = evStopped
	return true
}

// Hold implements Scheduler: no event runs until the returned release is
// called. Safe to call from callbacks and from external goroutines. The
// first Hold on a free clock adopts its birth hold (see NewVirtual).
// Calling the release more than once lets go once.
func (v *Virtual) Hold() func() {
	v.Acquire()
	var once sync.Once
	return func() { once.Do(v.Release) }
}

// Acquire is Hold without the release closure: no event runs until a
// matching Release. A caller that holds and lets go on every path of one
// function (a swap's setup) pays nothing for the guard Hold builds.
func (v *Virtual) Acquire() {
	v.mu.Lock()
	if v.born {
		v.born = false
	} else {
		v.holds++
	}
	v.mu.Unlock()
}

// Release lets go of one Acquire. Each Acquire takes exactly one Release.
func (v *Virtual) Release() { v.releaseN(1) }

// Pending reports the number of queued (non-cancelled) events.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, e := range v.queue {
		if e.state == evPending {
			n++
		}
	}
	return n
}

// RunUntil runs every event due at or before tick t — cascades onto t
// included, whatever their level — then stops the dispatcher as Close
// does: the clock rests at t and later events never run. It returns once
// the dispatcher has exited, so everything the callbacks wrote is visible
// to the caller. This is how a single-threaded simulation is driven: set
// up, RunUntil(horizon). A birth hold nobody adopted is let go here.
func (v *Virtual) RunUntil(t vtime.Ticks) {
	v.schedule(new(Event), t, math.MaxInt8, 0, funcHandler(func() {
		v.mu.Lock()
		v.closed = true
		v.mu.Unlock()
	}))
	v.Hold()()
	<-v.done
}

// Close stops the dispatcher and waits for it to exit; queued events
// never run. Idempotent.
func (v *Virtual) Close() {
	v.mu.Lock()
	v.closed = true
	v.cond.Signal()
	v.mu.Unlock()
	<-v.done
}

func (v *Virtual) loop() {
	for {
		v.mu.Lock()
		for !v.closed && (v.holds > 0 || len(v.queue) == 0 || v.early()) {
			v.waiting = true
			v.cond.Wait()
			v.waiting = false
		}
		if v.closed {
			v.mu.Unlock()
			if v.alarm != nil {
				v.alarm.Stop()
			}
			close(v.wake)
			v.helpers.Wait()
			close(v.done)
			return
		}
		v.dispatch()
	}
}

// early reports whether a paced clock has yet to reach the head event's
// tick, and if so sets the alarm for when it does; an earlier event, a hold
// or Close wakes the dispatcher sooner. Called with v.mu held, queue non-empty.
func (v *Virtual) early() bool {
	if v.tick == 0 {
		return false
	}
	d := time.Until(v.start.Add(time.Duration(v.queue[0].at) * v.tick))
	if d <= 0 {
		return false
	}
	v.alarm.Reset(d)
	return true
}

// dispatch pops the earliest (tick, priority) batch into v.batch — the
// batch is claimed: a Stop on any of its events from now on reports false —
// takes one hold for it, and runs it: inline when it is one stripe, else
// grouped by stripe and claimed through the cursor. Called with v.mu held;
// returns with it released. The hold is the barrier: the dispatcher cannot
// pop the next batch (or advance time) until every stripe has drained, and
// cascades that land back on the current (tick, priority) — what a callback
// schedules there, or enqueues behind a Hold of its own — join the next
// batch before any later one.
func (v *Virtual) dispatch() {
	t, p := v.queue[0].at, v.queue[0].prio
	batch, oneStripe := v.batch[:0], true
	for len(v.queue) > 0 && v.queue[0].at == t && v.queue[0].prio == p {
		e := v.queue.pop()
		if e.state != evPending {
			continue
		}
		e.state = evFired
		if len(batch) > 0 && e.key != batch[0].key {
			oneStripe = false
		}
		batch = append(batch, e)
	}
	v.batch = batch
	if len(batch) == 0 {
		v.mu.Unlock()
		return
	}
	v.reach(t, p)
	v.holds++
	v.mu.Unlock()

	stripes, mine, wakes := 1, 1, 0
	if oneStripe {
		// Nothing to group or share: run it inline on the dispatcher.
		for i, e := range batch {
			batch[i] = nil
			e.h.Fire()
		}
	} else {
		// Batch order is scheduling order (heap pops), so sorting by (key,
		// scheduling order) groups the stripes and keeps each one's order.
		slices.SortFunc(batch, func(a, b *Event) int {
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			return cmp.Compare(a.seq, b.seq)
		})
		starts := v.starts[:0]
		for i, e := range batch {
			if i == 0 || e.key != batch[i-1].key {
				starts = append(starts, int32(i))
			}
		}
		stripes = len(starts)
		v.starts = append(starts, int32(len(batch)))
		v.left.Store(int32(stripes))
		v.cursor.Store(uint64(stripes) << 32) // publishes the batch
		mine, wakes = v.runBatch()
	}

	v.mu.Lock()
	v.stats.Batches++
	v.stats.Events += int64(len(batch))
	v.stats.Stripes += int64(stripes)
	v.stats.Wakes += int64(wakes)
	v.stats.HelpedStripes += int64(stripes - mine)
	if mine == stripes {
		v.stats.SoloBatches++
	}
	if oneStripe || mine > 0 && v.left.Add(int32(-mine)) == 0 {
		v.holds-- // the dispatcher is the last one out, and is not waiting
	}
	v.mu.Unlock()
}

// runBatch is the dispatcher's share of a published batch: it claims and
// runs stripes until none is left unclaimed, and reports how many it ran
// and how many helpers it roused. It asks for help only once the batch has
// run — or has last asked — longer ago than help takes to arrive, and only
// for stripes still unclaimed: help that would arrive after the batch is
// over is never sent for, and a batch long enough to share is shared after
// its first few microseconds. It can look up only between stripes, so it
// then sends for every helper that came due while the stripe ran.
func (v *Virtual) runBatch() (mine, wakes int) {
	var ask time.Duration
	if cap(v.wake) > 0 {
		ask = time.Since(v.start) + time.Duration(v.arrive.Load())
	}
	for v.claim() {
		mine++
		// The next unclaimed stripe is the dispatcher's own: help is for
		// the ones behind it.
		c := v.cursor.Load()
		spare := int(uint32(c>>32)-uint32(c)) - 1
		if spare <= 0 || wakes == cap(v.wake) {
			continue
		}
		now := time.Since(v.start)
		if now < ask {
			continue
		}
		every := max(time.Duration(v.arrive.Load()), 1)
		for due := min(1+int((now-ask)/every), spare, cap(v.wake)-wakes); due > 0; due-- {
			select {
			case v.wake <- now:
				wakes++
			default: // every helper already has a token coming
			}
		}
		ask = now + every
	}
	if wakes == 0 && cap(v.wake) > 0 {
		// An estimate that one slow arrival pushed past every batch would
		// never be measured again: let it sink until a batch asks.
		v.arrive.Add(-v.arrive.Load() / 256)
	}
	return mine, wakes
}

// claim takes the next unclaimed stripe of the running batch and runs it,
// or reports false if there is none (see cursor for why a late caller is
// safe). Fired events are cleared from the batch as they go, so the kept
// buffer retains none.
func (v *Virtual) claim() bool {
	for {
		c := v.cursor.Load()
		i := uint32(c)
		if i == uint32(c>>32) {
			return false
		}
		if !v.cursor.CompareAndSwap(c, c+1) {
			continue
		}
		for j := v.starts[i]; j < v.starts[i+1]; j++ {
			e := v.batch[j]
			v.batch[j] = nil
			e.h.Fire()
		}
		return true
	}
}

// helper sleeps until the dispatcher sends for it, then claims stripes
// until none is left. Stripes it has claimed pin their batch — left cannot
// reach zero without them — so the ones it counts are all one batch's.
func (v *Virtual) helper() {
	defer v.helpers.Done()
	for {
		asleep := len(v.wake) == 0 // else the token came while it was still up
		sent, ok := <-v.wake
		if !ok {
			return
		}
		if asleep {
			took := int64(time.Since(v.start) - sent)
			if a := v.arrive.Load(); a > 0 {
				took = min(took, 2*a) // one slow arrival measured a busy core
			}
			v.arrive.Store(took)
		}
		if v.helperHook != nil {
			v.helperHook()
		}
		n := 0
		for v.claim() {
			n++
		}
		if n > 0 && v.left.Add(int32(-n)) == 0 {
			v.releaseN(1)
		}
	}
}

// releaseN drops n holds and wakes the dispatcher if it is waiting.
func (v *Virtual) releaseN(n int) {
	v.mu.Lock()
	v.holds -= n
	if v.waiting {
		v.cond.Signal()
	}
	v.mu.Unlock()
}
