package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// forEachScheduler runs the test body on the three schedulers a Loop is
// written against: wall-clock, serial virtual, striped virtual.
func forEachScheduler(t *testing.T, body func(t *testing.T, sc Scheduler)) {
	t.Run("real", func(t *testing.T) { body(t, NewReal(time.Microsecond)) })
	for name, workers := range map[string]int{"virtual-serial": 1, "virtual-striped": 4} {
		t.Run(name, func(t *testing.T) {
			v := NewVirtual(workers)
			defer v.Close()
			body(t, v)
		})
	}
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestLoopGridAlignment: a loop woken mid-phase lands its next round on the
// cadence grid under virtual time (not wake+every), and a full cadence
// after the wake on real time.
func TestLoopGridAlignment(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, sc Scheduler) {
		const every = 4
		var l *Loop
		rounds := make(chan vtime.Ticks, 1)
		l = NewLoop(sc, every, 1, 7, func() bool {
			now := sc.Now()
			l.Park()
			rounds <- now // the test sees a round only once the loop is parked
			return false
		})
		round := func() vtime.Ticks {
			t.Helper()
			select {
			case at := <-rounds:
				return at
			case <-time.After(10 * time.Second):
				t.Fatal("round never ran")
				return 0
			}
		}
		first := sc.Now()
		l.Wake()
		var got [2]vtime.Ticks
		got[0] = round()
		// Mid-phase: one tick past the next grid tick.
		woken := make(chan vtime.Ticks, 1)
		sc.At(got[0].Add(every+1), func() {
			woken <- sc.Now()
			l.Wake()
		})
		got[1] = round()
		wake := <-woken
		if _, virtual := sc.(*Virtual); virtual {
			if got != [2]vtime.Ticks{every, 3 * every} {
				t.Fatalf("rounds at %v, want the grid ticks [%d %d]", got, every, 3*every)
			}
		} else if got[0] < first.Add(every) || got[1] < wake.Add(every) {
			t.Fatalf("rounds at %v ran less than a cadence after their wakes (%d, %d)", got, first, wake)
		}
		if !l.Parked() {
			t.Fatal("loop not parked after its tick parked it")
		}
		l.Stop(true)
		if l.Parked() {
			t.Fatal("a stopped loop reports parked")
		}
	})
}

// TestLoopParkWakeNeverLosesWakeup drives the park-then-recheck protocol
// from another goroutine: every unit of work is produced with the loop in
// whatever state the previous one left it — armed, mid-tick, parking,
// parked — and must still be consumed.
func TestLoopParkWakeNeverLosesWakeup(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, sc Scheduler) {
		const iterations = 10000
		var work atomic.Int64
		ack := make(chan struct{}, 1) // the producer has one unit outstanding
		var l *Loop
		l = NewLoop(sc, 1, 1, 0, func() bool {
			if work.Swap(0) > 0 {
				ack <- struct{}{}
				return true
			}
			l.Park()
			if work.Load() > 0 {
				l.Wake()
			}
			return false
		})
		defer l.Stop(true)
		for i := 0; i < iterations; i++ {
			work.Add(1)
			l.Wake()
			select {
			case <-ack:
			case <-time.After(10 * time.Second):
				t.Fatalf("unit %d never consumed: wake-up lost (parked=%v)", i, l.Parked())
			}
		}
	})
}

// TestLoopStopWaitsOutTick: Stop(true) returns only once a tick in flight
// has finished, and nothing runs after it.
func TestLoopStopWaitsOutTick(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, sc Scheduler) {
		entered, release := make(chan struct{}), make(chan struct{})
		var ticks atomic.Int64
		l := NewLoop(sc, 1, 1, 0, func() bool {
			if ticks.Add(1) == 1 {
				close(entered)
				<-release
			}
			return true
		})
		l.Wake()
		await(t, entered, "the first tick")
		stopped := make(chan struct{})
		go func() {
			l.Stop(true)
			close(stopped)
		}()
		select {
		case <-stopped:
			t.Fatal("Stop(true) returned with a tick in flight")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		await(t, stopped, "Stop(true)")
		if n := ticks.Load(); n != 1 {
			t.Fatalf("%d ticks ran, want 1: the stopped loop re-armed", n)
		}
	})
}

// TestLoopStopFromInsideTick: Stop(false) is callable from the loop's own
// tick (Kill's shape), ends the loop even though the tick asks to continue,
// and a later Wake cannot revive it.
func TestLoopStopFromInsideTick(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, sc Scheduler) {
		var ticks atomic.Int64
		ran := make(chan struct{})
		var l *Loop
		l = NewLoop(sc, 2, 1, 0, func() bool {
			if ticks.Add(1) == 1 {
				l.Stop(false)
				close(ran)
			}
			return true
		})
		l.Wake()
		await(t, ran, "the tick")
		l.Wake()
		// Three cadences later nothing else has run.
		later := make(chan struct{})
		sc.At(sc.Now().Add(6), func() { close(later) })
		await(t, later, "the marker")
		l.Stop(true)
		if n := ticks.Load(); n != 1 {
			t.Fatalf("%d ticks ran, want 1", n)
		}
	})
}
