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

// TestVirtualDeterministicSameTickOrder pins the tie-break contract shared
// with sim.Scheduler: events at identical ticks run in scheduling order.
func TestVirtualDeterministicSameTickOrder(t *testing.T) {
	v := NewVirtual()
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
	v := NewVirtual()
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
	v := NewVirtual()
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
	v := NewVirtual()
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
	v := NewVirtual()
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
	v := NewVirtual()
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
	v := NewVirtual()
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

func TestRealSchedulerBasics(t *testing.T) {
	r := NewReal(time.Millisecond)
	if r.Tick() != time.Millisecond {
		t.Fatalf("tick %v", r.Tick())
	}
	start := r.Now()
	ch := make(chan vtime.Ticks, 1)
	r.At(start+3, func() { ch <- r.Now() })
	select {
	case at := <-ch:
		if at < start+2 {
			t.Fatalf("fired at %d, target %d", at, start+3)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("real timer never fired")
	}
	// Hold is a documented no-op.
	r.Hold()()
	// Past-tick scheduling fires immediately.
	r.At(0, func() { ch <- r.Now() })
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("past-tick timer never fired")
	}
	// Cancellation before the due time.
	tm := r.At(r.Now()+1000, func() { t.Error("cancelled real timer ran") })
	if !tm.Stop() {
		t.Fatal("Stop on pending real timer must report true")
	}
}

func TestLatencyProbe(t *testing.T) {
	p := NewLatencyProbe()
	if s := p.Snapshot(); s.Samples != 0 || s.EstimateTicks() != 0 {
		t.Fatalf("fresh probe: %+v", s)
	}
	p.Observe(-5) // clamps to 0
	p.Observe(2)
	p.Observe(2)
	p.Observe(10)
	s := p.TakeWindow()
	if s.Samples != 4 {
		t.Fatalf("samples %d", s.Samples)
	}
	if s.WindowMax != 10 {
		t.Fatalf("window max %d", s.WindowMax)
	}
	if est := s.EstimateTicks(); est != 10 {
		t.Fatalf("estimate %d, want window max 10", est)
	}
	// Window max resets; EWMA persists.
	s2 := p.Snapshot()
	if s2.WindowMax != 0 {
		t.Fatalf("window max after TakeWindow: %d", s2.WindowMax)
	}
	if s2.EWMA <= 0 {
		t.Fatalf("ewma lost: %f", s2.EWMA)
	}
}
