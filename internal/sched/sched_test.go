package sched

import (
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// collect drains scheduled marks through a mutex so the race detector can
// watch the dispatcher handoff.
type collect struct {
	mu   sync.Mutex
	got  []int
	wake chan struct{}
}

func newCollect() *collect { return &collect{wake: make(chan struct{}, 64)} }

func (c *collect) mark(i int) func() {
	return func() {
		c.mu.Lock()
		c.got = append(c.got, i)
		c.mu.Unlock()
		c.wake <- struct{}{}
	}
}

func (c *collect) waitN(t *testing.T, n int) []int {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.got) >= n {
			out := append([]int(nil), c.got...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.wake:
		case <-deadline:
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Fatalf("timed out waiting for %d events, got %v", n, c.got)
		}
	}
}

// TestVirtualDeterministicSameTickOrder pins the tie-break contract:
// events at identical ticks run in scheduling order.
func TestVirtualDeterministicSameTickOrder(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	c := newCollect()

	// Hold while scheduling so the heap sees all events before any runs.
	release := v.Hold()
	for i := 0; i < 8; i++ {
		v.At(5, c.mark(i))
	}
	v.At(3, c.mark(100)) // earlier tick scheduled last still runs first
	release()

	got := c.waitN(t, 9)
	want := []int{100, 0, 1, 2, 3, 4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if now := v.Now(); now != 5 {
		t.Fatalf("clock at %d, want 5", now)
	}
}

// TestVirtualTimerCancellation: a stopped timer never runs and does not
// advance the clock; stopping a fired timer reports false.
func TestVirtualTimerCancellation(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	c := newCollect()

	release := v.Hold()
	cancelled := v.At(50, c.mark(1))
	v.At(10, c.mark(2))
	if !cancelled.Stop() {
		t.Fatal("Stop on a pending timer must report true")
	}
	if cancelled.Stop() {
		t.Fatal("second Stop must report false")
	}
	release()

	got := c.waitN(t, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
	if now := v.Now(); now != 10 {
		t.Fatalf("cancelled event advanced the clock to %d, want 10", now)
	}
	// A timer that already ran cannot be stopped.
	tm := v.At(11, c.mark(3))
	c.waitN(t, 2)
	if tm.Stop() {
		t.Fatal("Stop after firing must report false")
	}
}

// TestVirtualTimerIsItsEvent pins Stop on the handle At returns — the
// queued event itself: true only when it kept the callback from running;
// false after firing, on a second Stop, from inside the event's own
// callback, and for a handle kept long past its event; and a cancelled
// event leaves Pending at once.
func TestVirtualTimerIsItsEvent(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	c := newCollect()

	release := v.Hold()
	stopped := v.At(5, c.mark(1))
	kept := v.AtKeyed(5, 7, c.mark(2))
	v.AtTail(5, c.mark(3))
	var self Timer
	inside := make(chan bool, 1)
	self = v.At(6, func() {
		inside <- self.Stop()
		c.mark(4)()
	})
	if got := v.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	if !stopped.Stop() {
		t.Fatal("Stop before firing must report true")
	}
	if got := v.Pending(); got != 3 {
		t.Fatalf("Pending after Stop = %d, want 3", got)
	}
	if stopped.Stop() {
		t.Fatal("second Stop must report false")
	}
	release()

	if got := c.waitN(t, 3); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("ran %v, want [2 3 4]: a stopped callback must never run", got)
	}
	if <-inside {
		t.Fatal("Stop from inside the event's own callback must report false")
	}
	if kept.Stop() || kept.Stop() || self.Stop() {
		t.Fatal("Stop after firing must report false, however often")
	}
	// A stale handle is inert: later events, same tick and key included,
	// are none of its business.
	later := v.AtKeyed(5, 7, c.mark(5))
	if kept.Stop() || stopped.Stop() {
		t.Fatal("a stale handle must not report a cancellation")
	}
	if got := c.waitN(t, 4); got[3] != 5 {
		t.Fatalf("ran %v: a stale Stop cancelled someone else's event", got)
	}
	if later.Stop() {
		t.Fatal("Stop after firing must report false")
	}
	if got := v.Pending(); got != 0 {
		t.Fatalf("Pending at rest = %d, want 0", got)
	}
}

// TestVirtualHoldPinsTime: while a hold is out, due events do not run.
func TestVirtualHoldPinsTime(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	c := newCollect()

	release := v.Hold()
	v.At(7, c.mark(1))
	time.Sleep(20 * time.Millisecond)
	c.mu.Lock()
	ran := len(c.got)
	c.mu.Unlock()
	if ran != 0 {
		t.Fatal("event ran while the clock was held")
	}
	if now := v.Now(); now != 0 {
		t.Fatalf("held clock advanced to %d", now)
	}
	release()
	release() // idempotent
	c.waitN(t, 1)
	if now := v.Now(); now != 7 {
		t.Fatalf("clock at %d, want 7", now)
	}
}

// TestVirtualCascadeBeforeAdvance: a callback scheduling at its own tick
// runs before later-tick events.
func TestVirtualCascadeBeforeAdvance(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	c := newCollect()

	release := v.Hold()
	v.At(2, func() {
		v.At(2, c.mark(1)) // same-tick cascade
		c.mark(0)()
	})
	v.At(4, c.mark(2))
	release()

	got := c.waitN(t, 3)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestVirtualCloseDropsEvents: Close stops the dispatcher; queued and
// post-Close events never run.
func TestVirtualCloseDropsEvents(t *testing.T) {
	v := NewVirtual(1)
	c := newCollect()
	release := v.Hold()
	v.At(1, c.mark(1))
	v.Close()
	release()
	if tm := v.At(2, c.mark(2)); tm.Stop() {
		t.Fatal("post-Close timer claims it was stoppable")
	}
	time.Sleep(10 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.got) != 0 {
		t.Fatalf("events ran after Close: %v", c.got)
	}
	v.Close() // idempotent
}

// TestVirtualConcurrentSchedulers hammers At/Stop/Hold from many
// goroutines; run under -race this is the thread-safety proof.
func TestVirtualConcurrentSchedulers(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	var ran sync.WaitGroup
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				release := v.Hold()
				ran.Add(1)
				tm := v.At(vtime.Ticks(g*200+i), func() { ran.Done() })
				if i%3 == 0 {
					if tm.Stop() {
						ran.Done()
					}
				}
				release()
			}
		}()
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { ran.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scheduled events did not drain")
	}
}

// TestVirtualRunUntil pins the single-threaded simulation driver: events
// run in (tick, scheduling) order up to and including the horizon, the
// clock rests on the horizon, and later events never run.
func TestVirtualRunUntil(t *testing.T) {
	t.Run("time order and horizon", func(t *testing.T) {
		// The clock is born held, and RunUntil lets it go only after queuing
		// the horizon: a release before RunUntil would run the later events.
		v := NewVirtual(1)
		var ran []vtime.Ticks
		for _, at := range []vtime.Ticks{20, 5, 15, 10} {
			at := at
			v.At(at, func() { ran = append(ran, v.Now()) })
		}
		v.RunUntil(12)
		if len(ran) != 2 || ran[0] != 5 || ran[1] != 10 {
			t.Fatalf("ran at %v, want [5 10]", ran)
		}
		if now := v.Now(); now != 12 {
			t.Fatalf("clock at %d, want the horizon 12", now)
		}
		if v.Pending() != 2 {
			t.Fatalf("pending = %d, want the two later events still queued", v.Pending())
		}
		v.Close() // idempotent after RunUntil
		if len(ran) != 2 {
			t.Fatalf("events past the horizon ran: %v", ran)
		}
	})
	t.Run("idle clock advances to the horizon", func(t *testing.T) {
		v := NewVirtual(1)
		v.RunUntil(100)
		if now := v.Now(); now != 100 {
			t.Fatalf("idle RunUntil left the clock at %d, want 100", now)
		}
	})
	t.Run("past means now, after what is already queued", func(t *testing.T) {
		v := NewVirtual(1)
		var order []int
		var firedAt vtime.Ticks = -1
		release := v.Hold()
		v.At(10, func() {
			v.At(3, func() { firedAt = v.Now(); order = append(order, 2) }) // in the past
			order = append(order, 0)
		})
		v.At(10, func() { order = append(order, 1) })
		release()
		v.RunUntil(10)
		if firedAt != 10 {
			t.Fatalf("past event fired at %d, want clamp to 10", firedAt)
		}
		if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("order %v, want [0 1 2]", order)
		}
	})
	t.Run("cascades", func(t *testing.T) {
		// Events scheduling events: a chain of N one-tick hops lands at
		// tick N, the horizon tick's own cascade included.
		v := NewVirtual(1)
		const hops = 50
		count := 0
		var hop func()
		hop = func() {
			count++
			if count < hops {
				v.At(v.Now()+1, hop)
			}
		}
		v.At(1, hop)
		v.RunUntil(hops)
		if count != hops {
			t.Fatalf("count = %d, want %d", count, hops)
		}
	})
	t.Run("cancelled head does not pull the clock", func(t *testing.T) {
		v := NewVirtual(1)
		ran := 0
		tm := v.At(5, func() { ran++ })
		v.At(50, func() { ran++ })
		tm.Stop()
		v.RunUntil(10)
		if ran != 0 {
			t.Fatalf("%d events ran, want none", ran)
		}
		if now := v.Now(); now != 10 {
			t.Fatalf("clock at %d, want 10", now)
		}
	})
}

// TestPacedNoEventBeforeItsWallTime: on a paced clock an event runs no
// earlier than the wall time of its tick, sees Now at or past its tick, and
// a tick in the past means now. Tick reports the pace.
func TestPacedNoEventBeforeItsWallTime(t *testing.T) {
	const tick = 2 * time.Millisecond
	begin := time.Now()
	v := NewPaced(1, tick)
	defer v.Close()
	if v.Tick() != tick {
		t.Fatalf("Tick() = %v, want %v", v.Tick(), tick)
	}
	type firing struct {
		at, now vtime.Ticks
		wall    time.Duration
	}
	fired := make(chan firing, 3)
	for _, at := range []vtime.Ticks{15, 5, 10} {
		v.At(at, func() { fired <- firing{at, v.Now(), time.Since(begin)} })
	}
	for _, want := range []vtime.Ticks{5, 10, 15} {
		select {
		case f := <-fired:
			if f.at != want {
				t.Fatalf("event for tick %d ran, want tick %d's first", f.at, want)
			}
			if f.now < f.at {
				t.Errorf("event for tick %d saw Now() = %d", f.at, f.now)
			}
			if due := time.Duration(f.at) * tick; f.wall < due {
				t.Errorf("event for tick %d ran %v after the clock started, before its wall time %v", f.at, f.wall, due)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("event for tick %d never ran", want)
		}
	}
	late := make(chan vtime.Ticks, 1)
	v.At(0, func() { late <- v.Now() })
	select {
	case now := <-late:
		if now < 15 {
			t.Errorf("past-tick event saw Now() = %d, before an event that already ran", now)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("past-tick event never ran")
	}
}

// TestPacedSleepIsPreemptible: the dispatcher asleep until a far event's
// wall time wakes for an earlier event scheduled meanwhile, stays put under
// a Hold, gives a stopped event no turn, and returns from Close.
func TestPacedSleepIsPreemptible(t *testing.T) {
	v := NewPaced(1, time.Millisecond)
	far := v.At(3_600_000, func() { t.Error("the event an hour out ran") })
	time.Sleep(5 * time.Millisecond) // let the dispatcher go to sleep on it
	near := make(chan struct{})
	v.At(v.Now().Add(2), func() { close(near) })
	await(t, near, "the event scheduled while the dispatcher slept")

	release := v.Hold()
	held := make(chan struct{})
	v.At(0, func() { close(held) })
	select {
	case <-held:
		t.Fatal("an event ran under a hold")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	await(t, held, "the held event")

	if !far.Stop() {
		t.Error("Stop on a pending event must report true")
	}
	closed := make(chan struct{})
	go func() {
		v.Close()
		close(closed)
	}()
	await(t, closed, "Close during the dispatcher's sleep")
}

// TestPacedNowNeverGoesBackwards: Now is the later of the dispatched tick
// and the wall's, read here from inside events and from outside at once.
func TestPacedNowNeverGoesBackwards(t *testing.T) {
	v := NewPaced(4, 50*time.Microsecond)
	defer v.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last vtime.Ticks
			for {
				select {
				case <-stop:
					return
				default:
				}
				if now := v.Now(); now < last {
					t.Errorf("Now() went from %d back to %d", last, now)
					return
				} else {
					last = now
				}
			}
		}()
	}
	const n = 200
	done := make(chan struct{})
	var last vtime.Ticks
	for i := 1; i <= n; i++ {
		v.At(vtime.Ticks(i), func() {
			// Unkeyed events share a stripe: one at a time, in tick order.
			if now := v.Now(); now < last || now < vtime.Ticks(i) {
				t.Errorf("event for tick %d saw Now() = %d after %d", i, now, last)
			} else {
				last = now
			}
			if i == n {
				close(done)
			}
		})
	}
	await(t, done, "the last event")
	close(stop)
	wg.Wait()
}

// TestPacedStripeOrder: pacing leaves the order alone — a stripe's events
// run one at a time in (tick, level, scheduling order), overdue or not,
// while other stripes run beside them.
func TestPacedStripeOrder(t *testing.T) {
	v := NewPaced(4, 100*time.Microsecond)
	defer v.Close()
	const stripes, perStripe = 4, 60
	var mu sync.Mutex
	got := make(map[uint64][]int)
	var wg sync.WaitGroup
	wg.Add(stripes * perStripe)
	release := v.Hold()
	for i := 0; i < perStripe; i++ {
		for k := uint64(1); k <= stripes; k++ {
			// Three to a tick, and every tick already past for the later
			// ones by the time the hold lets go.
			v.AtKeyed(vtime.Ticks(i/3), k, func() {
				mu.Lock()
				got[k] = append(got[k], i)
				mu.Unlock()
				wg.Done()
			})
		}
	}
	time.Sleep(2 * time.Millisecond)
	release()
	wg.Wait()
	for k, seq := range got {
		for i, x := range seq {
			if x != i {
				t.Fatalf("stripe %d ran %v: out of scheduling order at %d", k, seq, i)
			}
		}
	}
}

// TestVirtualBornHeld: a free clock does not move until whoever sets the
// run up lets go. The first Hold adopts the birth hold, a second is a hold
// of its own, and RunUntil lets go of one nobody adopted.
func TestVirtualBornHeld(t *testing.T) {
	v := NewVirtual(1)
	defer v.Close()
	ran := make(chan vtime.Ticks, 1)
	v.At(7, func() { ran <- v.Now() })
	idle := func(why string) {
		t.Helper()
		select {
		case <-ran:
			t.Fatalf("the event ran %s", why)
		case <-time.After(20 * time.Millisecond):
		}
		if now := v.Now(); now != 0 {
			t.Fatalf("the clock moved to %d %s", now, why)
		}
	}
	idle("before anyone let the clock go")
	first, second := v.Hold(), v.Hold()
	first()
	idle("with the second hold outstanding")
	second()
	select {
	case at := <-ran:
		if at != 7 {
			t.Fatalf("event ran at tick %d, want 7", at)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the event never ran once every hold was released")
	}

	w := NewVirtual(1)
	count := 0
	w.At(3, func() { count++ })
	w.RunUntil(5)
	if count != 1 || w.Now() != 5 {
		t.Fatalf("RunUntil on a clock nobody let go: %d events, clock at %d; want 1 and 5", count, w.Now())
	}
}

// TestVirtualAdvance: Advance moves a held free clock forward — never back,
// and a paced clock not at all — and what is scheduled in the past of the
// new tick means now.
func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(1)
	v.Advance(40)
	v.Advance(30)
	if now := v.Now(); now != 40 {
		t.Fatalf("clock at %d after Advance(40), Advance(30)", now)
	}
	var at vtime.Ticks
	v.At(10, func() { at = v.Now() })
	v.RunUntil(50)
	if at != 40 {
		t.Fatalf("event scheduled in the past ran at %d, want 40", at)
	}
	p := NewPaced(1, time.Hour)
	defer p.Close()
	p.Advance(40)
	if now := p.Now(); now != 0 {
		t.Fatalf("Advance moved a paced clock to %d", now)
	}
}

// ownedEvent is what a runtime that owns its records looks like to the
// scheduler: the record embeds the Event and is its own Handler.
type ownedEvent struct {
	ev   Event
	fire func()
}

func (o *ownedEvent) Fire() { o.fire() }

// TestOwnedEventStop pins Stop on caller-owned events: false on an idle
// event, true before firing (and the callback never runs), false on a
// second Stop, after firing, and for an event scheduled after Close.
func TestOwnedEventStop(t *testing.T) {
	v := NewVirtual(1)
	c := newCollect()

	var idle Event
	if idle.Stop() {
		t.Error("Stop on a never-scheduled event must report false")
	}

	release := v.Hold()
	stopped := &ownedEvent{fire: c.mark(1)}
	fired := &ownedEvent{fire: c.mark(2)}
	v.Schedule(&stopped.ev, 5, 0, stopped)
	v.Schedule(&fired.ev, 5, 0, fired)
	if got := v.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	if !stopped.ev.Stop() {
		t.Error("Stop before firing must report true")
	}
	if stopped.ev.Stop() {
		t.Error("second Stop must report false")
	}
	if got := v.Pending(); got != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", got)
	}
	release()

	if got := c.waitN(t, 1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fired %v, want [2]", got)
	}
	if fired.ev.Stop() {
		t.Error("Stop after firing must report false")
	}

	v.Close()
	late := &ownedEvent{fire: c.mark(3)}
	v.Schedule(&late.ev, 9, 0, late)
	if late.ev.Stop() {
		t.Error("an event scheduled after Close is already dropped: Stop must report false")
	}
	if got := v.Pending(); got != 0 {
		t.Errorf("Pending after Close = %d, want 0", got)
	}
}

// TestOwnedEventStoppedSkipsWithoutAdvancing: a stopped owner-storage
// event is discarded when popped and the clock never visits its tick, one
// worker or four.
func TestOwnedEventStoppedSkipsWithoutAdvancing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		v := NewVirtual(workers)
		c := newCollect()
		release := v.Hold()
		far := &ownedEvent{fire: c.mark(1)}
		near := &ownedEvent{fire: c.mark(2)}
		v.Schedule(&far.ev, 50, 3, far)
		v.Schedule(&near.ev, 10, 3, near)
		far.ev.Stop()
		release()
		if got := c.waitN(t, 1); got[0] != 2 {
			t.Fatalf("workers=%d: fired %v, want [2]", workers, got)
		}
		// RunUntil drains what is left: the stopped event pops and is
		// dropped on the way, and only the sentinel moves the clock.
		v.RunUntil(20)
		if got := c.waitN(t, 1); len(got) != 1 {
			t.Fatalf("workers=%d: stopped event ran: %v", workers, got)
		}
		if now := v.Now(); now != 20 {
			t.Fatalf("workers=%d: clock at %d, want 20 (never 50)", workers, now)
		}
	}
}

// TestOwnedEventsStripedBatches mixes owner-storage and closure events in
// one (tick, level) batch on a four-worker dispatcher: every stripe runs its
// own events in scheduling order whatever storage they live in, and an
// owned event scheduled from a callback onto the running tick joins the
// next batch of the same tick.
func TestOwnedEventsStripedBatches(t *testing.T) {
	v := NewVirtual(4)
	defer v.Close()
	const stripes, perStripe = 6, 8

	var mu sync.Mutex
	got := make(map[uint64][]int)
	var wg sync.WaitGroup
	note := func(key uint64, i int) func() {
		return func() {
			mu.Lock()
			got[key] = append(got[key], i)
			mu.Unlock()
			wg.Done()
		}
	}
	release := v.Hold()
	owned := make([]ownedEvent, 0, stripes*perStripe)
	for i := 0; i < perStripe; i++ {
		for key := uint64(1); key <= stripes; key++ {
			wg.Add(1)
			if i%2 == 0 {
				owned = append(owned, ownedEvent{fire: note(key, i)})
				o := &owned[len(owned)-1]
				v.Schedule(&o.ev, 7, key, o)
			} else {
				v.AtKeyed(7, key, note(key, i))
			}
		}
	}
	// A cascade onto the running tick from inside stripe 1.
	cascade := &ownedEvent{}
	wg.Add(2)
	cascade.fire = note(1, perStripe+1)
	v.AtKeyed(7, 1, func() {
		v.Schedule(&cascade.ev, 7, 1, cascade)
		note(1, perStripe)()
	})
	release()
	wg.Wait()

	for key := uint64(1); key <= stripes; key++ {
		n := perStripe
		if key == 1 {
			n += 2
		}
		if len(got[key]) != n {
			t.Fatalf("stripe %d ran %d events, want %d", key, len(got[key]), n)
		}
		for i, x := range got[key] {
			if x != i {
				t.Fatalf("stripe %d ran out of scheduling order: %v", key, got[key])
			}
		}
	}
	if now := v.Now(); now != 7 {
		t.Fatalf("clock at %d, want 7", now)
	}
}
