package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// forEachScheduler runs the test body on the three clocks a Loop runs on:
// paced by the wall ("real"), free with one worker, free with four. A free
// clock is born held: each body installs what it drives under a Hold, or
// lets the clock go where racing it is the point.
func forEachScheduler(t *testing.T, body func(t *testing.T, v *Virtual)) {
	for _, tc := range []struct {
		name string
		make func() *Virtual
	}{
		{"real", func() *Virtual { return NewPaced(1, time.Microsecond) }},
		{"workers=1", func() *Virtual { return NewVirtual(1) }},
		{"workers=4", func() *Virtual { return NewVirtual(4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.make()
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

// TestLoopGridAlignment: a round lands on the cadence grid — the first
// multiple of the cadence at or after the wake, tick 0 excluded — and so does
// the round of a loop woken mid-phase after parking (not wake+every). That is
// the tick the round sees, on either clock.
func TestLoopGridAlignment(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v *Virtual) {
		const every = 4
		grid := func(wake vtime.Ticks) vtime.Ticks { return max((wake+every-1)/every, 1) * every }
		var l *Loop
		rounds, woken := make(chan vtime.Ticks, 2), make(chan vtime.Ticks, 1)
		first := true
		l = NewLoop(v, every, 1, 7, func() bool {
			now := v.Now()
			if first {
				first = false
				// Mid-phase: one tick past the next grid tick.
				v.At(now.Add(every+1), func() {
					woken <- v.Now()
					l.Wake()
				})
			}
			l.Park()
			rounds <- now // the test sees a round only once the loop is parked
			return false
		})
		release := v.Hold()
		l.Wake()
		// The tick the loop armed from: an idle paced clock catches up with
		// the wall when the round is booked, and Now reads what it reached.
		start := v.Now()
		release()
		var got [2]vtime.Ticks
		for i := range got {
			select {
			case got[i] = <-rounds:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d never ran", i)
			}
		}
		want := [2]vtime.Ticks{grid(start), grid(<-woken)}
		if got != want || start == 0 && want != [2]vtime.Ticks{every, 3 * every} {
			t.Fatalf("rounds at %v from tick %d, want the grid ticks %v", got, start, want)
		}
		if l.Armed() {
			t.Fatal("loop armed after its tick parked it")
		}
		l.Stop(true)
		if l.Armed() {
			t.Fatal("a stopped loop reports armed")
		}
	})
}

// TestLoopWakeBelowItsLevelRunsThisTick: a parked loop woken at a grid tick
// it has not run runs that tick when the wake comes from below its level —
// the round it would have run had it stayed armed — and the next grid tick
// when the wake comes from its own level or above, so a round never follows
// a higher level of its own tick. On both free clocks.
func TestLoopWakeBelowItsLevelRunsThisTick(t *testing.T) {
	for _, workers := range []int{1, 4} {
		v := NewVirtual(workers)
		const every, level = 4, 2
		rounds := make(chan vtime.Ticks, 4)
		var l *Loop
		l = NewLoop(v, every, level, 7, func() bool {
			l.Park()
			rounds <- v.Now()
			return false
		})
		wakes := []struct {
			at   vtime.Ticks
			from int8
			want vtime.Ticks
		}{{8, 0, 8}, {16, level - 1, 16}, {24, level, 28}, {36, level + 1, 40}}
		release := v.Hold()
		for _, w := range wakes {
			if w.from == 0 {
				v.At(w.at, l.Wake)
			} else {
				v.AtLevel(w.at, w.from, 0, l.Wake)
			}
		}
		release()
		for _, w := range wakes {
			select {
			case got := <-rounds:
				if got != w.want {
					t.Errorf("workers=%d: woken at level %d of tick %d, the round ran at %d, want %d",
						workers, w.from, w.at, got, w.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d: no round after the wake at tick %d", workers, w.at)
			}
		}
		l.Stop(true)
		v.Close()
	}
}

// TestLoopStopWaitsOutTick: Stop(true) returns only once a tick in flight
// has finished, and nothing runs after it.
func TestLoopStopWaitsOutTick(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v *Virtual) {
		entered, release := make(chan struct{}), make(chan struct{})
		var ticks atomic.Int64
		l := NewLoop(v, 1, 1, 0, func() bool {
			if ticks.Add(1) == 1 {
				close(entered)
				<-release
			}
			return true
		})
		letGo := v.Hold()
		l.Wake()
		letGo()
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
	forEachScheduler(t, func(t *testing.T, v *Virtual) {
		var ticks atomic.Int64
		later := make(chan struct{})
		var l *Loop
		l = NewLoop(v, 2, 1, 0, func() bool {
			if ticks.Add(1) == 1 {
				l.Stop(false)
				// A wake that must not revive the loop, and a marker three
				// cadences on: nothing else has run by then.
				now := v.Now()
				v.At(now.Add(1), l.Wake)
				v.At(now.Add(6), func() { close(later) })
			}
			return true
		})
		release := v.Hold()
		l.Wake()
		release()
		await(t, later, "the marker")
		l.Stop(true)
		if n := ticks.Load(); n != 1 {
			t.Fatalf("%d ticks ran, want 1", n)
		}
	})
}

// TestLoopRoundAllocatesNothing: a running loop alternates between its two
// own queue entries, so a round — fire, tick, arm the next — allocates
// nothing on any clock.
func TestLoopRoundAllocatesNothing(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v *Virtual) {
		// The tick hands the clock to the test: one step is one round.
		step, done := make(chan struct{}), make(chan struct{})
		var quit atomic.Bool
		l := NewLoop(v, 1, 1, 0, func() bool {
			done <- struct{}{}
			<-step
			return !quit.Load()
		})
		letGo := v.Hold()
		l.Wake()
		letGo()
		await(t, done, "the first round")
		allocs := testing.AllocsPerRun(200, func() {
			step <- struct{}{}
			<-done
		})
		quit.Store(true)
		step <- struct{}{}
		l.Stop(true)
		if allocs != 0 {
			t.Fatalf("a round of a running loop allocates %.1f objects, want 0", allocs)
		}
	})
}
