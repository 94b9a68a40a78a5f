package sched

import (
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Loop states.
const (
	loopIdle    = iota // created, never woken
	loopArmed          // a tick is scheduled or running
	loopParked         // the tick parked it; Wake re-arms
	loopStopped        // Stop was called; nothing runs again
)

// Loop is a periodic tick on a Virtual that can go to sleep: the engine's
// clearing loop and the sharded escalation sweep are both one. It is a
// value, not a goroutine — each round is one timer on the scheduler, and a
// round schedules the next only when it finishes, so rounds are strictly
// sequential and whatever the tick touches is confined to one callback at a
// time.
//
// Rounds land on the cadence grid at a tail level with a stripe key (see
// AtLevel): a loop re-armed mid-phase after parking does not drift off the
// grid, so every loop of a cadence — across any number of engines — ticks
// at the same instants. A round lands on the first grid tick after the
// loop's previous round (tick 0 before the first) that is not behind the
// clock, and on the current tick only while the tick's ladder has not yet
// reached the loop's level. So a loop woken from below its level at a grid
// tick runs that tick — as it would have had it never parked — and one
// woken at or above its level runs the next: a level-1 round never follows
// level 3 of its own tick.
//
// Parking is what keeps a free clock from spinning empty rounds, and a
// paced one from waking for them. A tick that finds nothing to do calls Park
// and returns false; whatever brings work wakes the loop afterwards. The
// engine needs no re-check between the look and the Park: its work arrives
// only from events of a lower level (intake books at level 0, the sweep
// below the coordinator), never while a round is running.
type Loop struct {
	v     *Virtual
	every vtime.Duration
	level int8
	key   uint64
	tick  func() bool

	mu    sync.Mutex
	state uint8
	// rounds holds the queue entries: rounds are strictly sequential, so the
	// running round arms the other one and none is allocated. cur indexes
	// the one armed last, which is the only one that can be pending.
	rounds [2]Event
	cur    uint8
	armed  vtime.Ticks    // the grid tick of the round armed last
	wg     sync.WaitGroup // a tick in flight, for Stop(true)
}

// NewLoop returns an idle loop that, once woken, calls tick every `every`
// ticks of v for as long as tick returns true. level and key place the
// rounds on v's tail ladder.
func NewLoop(v *Virtual, every vtime.Duration, level int8, key uint64, tick func() bool) *Loop {
	return &Loop{v: v, every: every, level: level, key: key, tick: tick}
}

// Wake arms an idle or parked loop; on an armed or stopped one it does
// nothing. Safe from any goroutine, the loop's own tick included.
func (l *Loop) Wake() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == loopIdle || l.state == loopParked {
		l.state = loopArmed
		l.arm()
	}
}

// Park marks the loop parked. Call it from the tick, which then returns
// false.
func (l *Loop) Park() {
	l.mu.Lock()
	if l.state == loopArmed {
		l.state = loopParked
	}
	l.mu.Unlock()
}

// Armed reports whether a round is pending or running. A loop that is not
// runs no round until Wake: it is parked, was never woken, or is stopped.
func (l *Loop) Armed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state == loopArmed
}

// Stop cancels the pending round for good. With wait it also waits out a
// tick in flight, so no tick is running when it returns; without, it is
// callable from scheduler callbacks — the loop's own tick among them.
func (l *Loop) Stop(wait bool) {
	l.mu.Lock()
	l.state = loopStopped
	cur := &l.rounds[l.cur] // nothing is armed after this: it stays current
	l.mu.Unlock()
	cur.Stop()
	if wait {
		l.wg.Wait()
	}
}

// arm schedules the next round (see the type comment for the tick it picks).
// It reads the clock and queues the round in one critical section of the
// scheduler, so an idle paced clock catching up in between cannot push the
// round off the grid. Called with l.mu held.
func (l *Loop) arm() {
	v := l.v
	v.mu.Lock()
	defer v.mu.Unlock()
	v.catchUp()
	every, now := int64(l.every), v.now.Load()
	next := vtime.Ticks(max((now+every-1)/every, int64(l.armed)/every+1) * every)
	if int64(next) == now && v.ran >= l.level {
		next = next.Add(l.every)
	}
	l.armed = next
	l.cur ^= 1
	v.enqueue(&l.rounds[l.cur], next, l.level, l.key, l)
}

// Fire runs one round; it is the scheduler's entry point (Handler), not
// the caller's.
func (l *Loop) Fire() {
	l.mu.Lock()
	if l.state == loopStopped {
		l.mu.Unlock()
		return
	}
	l.wg.Add(1)
	l.mu.Unlock()
	defer l.wg.Done()
	if !l.tick() {
		return
	}
	l.mu.Lock()
	if l.state == loopArmed {
		l.arm()
	}
	l.mu.Unlock()
}
