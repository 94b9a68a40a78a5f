package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// stripedWith is a free striped scheduler with exactly this many helpers,
// whatever the core count: the helper paths run at GOMAXPROCS=1 too, where
// NewVirtual would keep none.
func stripedWith(helpers int) *Virtual { return newVirtual(max(helpers+1, 2), helpers, 0) }

// barrier checks the batch guarantee from inside callbacks: events carry
// the rank of their batch — (tick, level, generation), a cascade being one
// generation after its parent — and no event may start while one of a lower
// rank is still running, nor after one of a higher rank has started.
type barrier struct {
	mu      sync.Mutex
	rank    int64
	running int
	errs    []string
}

func (b *barrier) enter(rank int64, what string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case rank < b.rank:
		b.errs = append(b.errs, fmt.Sprintf("%s (rank %d) started after rank %d had", what, rank, b.rank))
	case rank > b.rank:
		if b.running > 0 {
			b.errs = append(b.errs, fmt.Sprintf("%s (rank %d) started with %d events of rank %d still running", what, rank, b.running, b.rank))
		}
		b.rank = rank
	}
	b.running++
}

func (b *barrier) leave() {
	b.mu.Lock()
	b.running--
	b.mu.Unlock()
}

// randomSchedule is what one seed makes of a scheduler: the order each
// stripe saw, how the same-batch Stops went, and every broken guarantee.
type randomSchedule struct {
	stripes          map[uint64][]int
	stops, stopped   int
	ghosts, ghostRan int
	holds, underHold int
	errs             []string
}

// runRandomSchedule books a seeded schedule — several ticks and levels, up
// to a dozen stripes, mixed closure and owner-storage events — and runs it
// to the end. Events cascade onto their own stripe at their own tick for a
// few generations; some take a Hold inside the callback and have another
// goroutine book an event under it; some call Stop on the next event of
// their batch, a ghost that logs nothing. Everything an event does was drawn
// before the run, so two schedulers are given the same schedule.
func runRandomSchedule(seed int64, v *Virtual) randomSchedule {
	rng := rand.New(rand.NewSource(seed))
	var (
		mu  sync.Mutex
		res = randomSchedule{stripes: make(map[uint64][]int)}
		bar barrier
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		res.errs = append(res.errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	rank := func(at vtime.Ticks, level int8, gen int) int64 { return (int64(at)*8+int64(level))*8 + int64(gen) }
	book := func(at vtime.Ticks, level int8, key uint64, fn func()) Timer {
		switch {
		case level > 0:
			return v.AtTailN(at, level, key, fn)
		case rng.Intn(2) == 0:
			o := &ownedEvent{fire: fn}
			v.Schedule(&o.ev, at, key, o)
			return &o.ev
		default:
			return v.AtKeyed(at, key, fn)
		}
	}
	// event returns the callback for one logged event and, through it, for
	// the generations it cascades into. rng is read only while booking the
	// roots, under the test's hold; cascades are booked from callbacks and
	// draw nothing.
	var event func(id int, at vtime.Ticks, level int8, key uint64, gen, depth int, held bool) func()
	event = func(id int, at vtime.Ticks, level int8, key uint64, gen, depth int, held bool) func() {
		var child func()
		if depth > 0 {
			child = event(id+1_000_000, at, level, key, gen+1, depth-1, false)
		}
		cascade := func(fn func()) {
			if level > 0 {
				v.AtTailN(at, level, key, fn)
			} else {
				v.AtKeyed(at, key, fn)
			}
		}
		return func() {
			bar.enter(rank(at, level, gen), fmt.Sprint("event ", id))
			defer bar.leave()
			if now := v.Now(); now != at {
				fail("event %d booked for tick %d ran at %d", id, at, now)
			}
			mu.Lock()
			res.stripes[key] = append(res.stripes[key], id)
			mu.Unlock()
			if child != nil {
				cascade(child)
			}
			if held {
				// The clock is pinned by a hold that outlives the callback:
				// what another goroutine books under it still lands on this
				// tick, in the batch after this one. Where in its stripe is
				// that goroutine's luck, so it is counted, not logged.
				release := v.Hold()
				go func() {
					time.Sleep(20 * time.Microsecond)
					cascade(func() {
						bar.enter(rank(at, level, gen+1), fmt.Sprint("booked under the hold of event ", id))
						defer bar.leave()
						if now := v.Now(); now != at {
							fail("booked under a hold at tick %d, ran at %d", at, now)
						}
						mu.Lock()
						res.underHold++
						mu.Unlock()
					})
					release()
				}()
			}
		}
	}

	release := v.Hold()
	const ticks, levels = 5, 3
	stripes := uint64(1 + rng.Intn(12))
	id := 0
	for at := vtime.Ticks(1); at <= ticks; at++ {
		for level := int8(0); level < levels; level++ {
			for n := rng.Intn(40); n > 0; n-- {
				id++
				key := 1 + uint64(rng.Intn(int(stripes)))
				depth, held := 0, false
				if rng.Intn(3) == 0 {
					depth = 1 + rng.Intn(3)
				}
				if held = rng.Intn(8) == 0; held {
					res.holds++
				}
				if rng.Intn(10) > 0 {
					book(at, level, key, event(id, at, level, key, 0, depth, held))
					continue
				}
				// A stopper and, booked right behind it into the same batch, the
				// ghost it stops — on its own stripe or on another.
				var ghost Timer
				inner := event(id, at, level, key, 0, depth, held)
				book(at, level, key, func() {
					stopped := ghost.Stop()
					mu.Lock()
					res.stops++
					if stopped {
						res.stopped++
					}
					mu.Unlock()
					inner()
				})
				res.ghosts++
				ghostAt, ghostLevel := at, level
				ghost = book(at, level, 1+uint64(rng.Intn(int(stripes))), func() {
					bar.enter(rank(ghostAt, ghostLevel, 0), "ghost")
					defer bar.leave()
					mu.Lock()
					res.ghostRan++
					mu.Unlock()
				})
			}
		}
	}
	release()
	v.RunUntil(ticks)
	res.errs = append(res.errs, bar.errs...)
	return res
}

// TestStripedRandomSchedules runs seeded schedules on the serial dispatcher
// and on striped ones with no helper, one and seven: every stripe sees the
// same events in the same order, nothing of a batch starts before the batch
// before it has wholly returned, a Hold taken inside a callback pins the
// tick, and a batch is claimed when popped — a same-batch Stop cancels
// under serial dispatch and reports false under striped, where its victim
// runs.
func TestStripedRandomSchedules(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		want := runRandomSchedule(seed, NewVirtual(1))
		if len(want.errs) > 0 {
			t.Fatalf("seed %d, serial: %v", seed, want.errs)
		}
		if want.underHold != want.holds {
			t.Fatalf("seed %d, serial: %d of %d events booked under a callback's hold ran", seed, want.underHold, want.holds)
		}
		if want.stopped != want.stops || want.ghostRan != 0 {
			t.Fatalf("seed %d, serial: %d of %d same-tick Stops cancelled and %d victims ran; want every one cancelled", seed, want.stopped, want.stops, want.ghostRan)
		}
		for _, helpers := range []int{0, 1, 7} {
			got := runRandomSchedule(seed, stripedWith(helpers))
			if len(got.errs) > 0 {
				t.Fatalf("seed %d, %d helpers: %v", seed, helpers, got.errs)
			}
			if got.underHold != got.holds {
				t.Fatalf("seed %d, %d helpers: %d of %d events booked under a callback's hold ran", seed, helpers, got.underHold, got.holds)
			}
			if got.stopped != 0 || got.ghostRan != got.ghosts {
				t.Fatalf("seed %d, %d helpers: %d Stops cancelled a claimed batch's event, %d of %d victims ran", seed, helpers, got.stopped, got.ghostRan, got.ghosts)
			}
			if len(got.stripes) != len(want.stripes) {
				t.Fatalf("seed %d, %d helpers: %d stripes ran, serial ran %d", seed, helpers, len(got.stripes), len(want.stripes))
			}
			for key, w := range want.stripes {
				if g := got.stripes[key]; fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("seed %d, %d helpers: stripe %d ran %v, serial ran %v", seed, helpers, key, g, w)
				}
			}
		}
	}
}

// TestStripedBarrierUnderChurn drives thousands of tiny batches through
// dispatchers with helpers, where a batch is over in less time than a
// helper takes to turn round: a helper that wakes into a later batch, takes
// all of it before the dispatcher takes any, or finishes last must still
// leave exactly one release of the batch's hold.
func TestStripedBarrierUnderChurn(t *testing.T) {
	for _, helpers := range []int{1, 3} {
		v := stripedWith(helpers)
		const ticks, stripes = 4000, 4
		var inside [2]atomic.Int32
		var early atomic.Int32
		fired := make([]int, stripes)
		pacers := make([]pacerEvent, stripes)
		for i := range pacers {
			p := &pacers[i]
			*p = pacerEvent{v: v, key: uint64(i + 1), horizon: ticks, inside: &inside, early: &early, fired: &fired[i]}
			v.Schedule(&p.ev, 1, p.key, p)
		}
		v.RunUntil(ticks)
		if n := early.Load(); n != 0 {
			t.Fatalf("%d helpers: %d events started while the tick before was still running", helpers, n)
		}
		for i, n := range fired {
			if n != ticks {
				t.Fatalf("%d helpers: stripe %d ran %d events, want %d", helpers, i+1, n, ticks)
			}
		}
		if s := v.Stats(); s.Batches != ticks+1 || s.Stripes != ticks*stripes+1 {
			t.Fatalf("%d helpers: %v; want %d batches of %d stripes and the sentinel", helpers, s, ticks, stripes)
		}
	}
}

// pacerEvent is a self-perpetuating event, one a tick on its stripe, that
// checks the barrier on the way: it counts itself in and out of its tick's
// parity, and no event of the neighbouring tick may be inside while it is.
type pacerEvent struct {
	ev      Event
	v       *Virtual
	key     uint64
	horizon vtime.Ticks
	inside  *[2]atomic.Int32
	early   *atomic.Int32
	fired   *int
}

func (p *pacerEvent) Fire() {
	at := p.v.Now()
	p.inside[at%2].Add(1)
	if p.inside[(at+1)%2].Load() != 0 {
		p.early.Add(1)
	}
	*p.fired++ // one stripe's events never overlap: the detector agrees or says so
	if at < p.horizon {
		p.v.Schedule(&p.ev, at+1, p.key, p)
	}
	p.inside[at%2].Add(-1)
}

// TestStripedLateHelper parks a roused helper on the test hook until its
// batch is over, then lets it go at different points of the batches that
// follow: it must run nothing of the batch it was sent for, and either find
// nothing to claim or join a later batch whole — every event still runs
// exactly once, in stripe order, behind the barrier.
func TestStripedLateHelper(t *testing.T) {
	const ticks, stripes = 40, 5
	for round := 0; round < 20; round++ {
		v := stripedWith(1)
		gate := make(chan struct{})
		var roused atomic.Int32
		v.helperHook = func() {
			if roused.Add(1) == 1 {
				<-gate
			}
		}
		var (
			mu   sync.Mutex
			logs = make(map[uint64][]vtime.Ticks)
			bar  barrier
		)
		letGoAt := vtime.Ticks(2 + round%6)
		release := v.Hold()
		for at := vtime.Ticks(1); at <= ticks; at++ {
			for key := uint64(1); key <= stripes; key++ {
				v.AtKeyed(at, key, func() {
					bar.enter(int64(at)*2, "event")
					defer bar.leave()
					mu.Lock()
					logs[key] = append(logs[key], at)
					mu.Unlock()
					if at == letGoAt && key == uint64(1+round%stripes) {
						close(gate) // mid-batch: the helper wakes into a later one
					}
				})
			}
			if at == 1 {
				// Tick 1 is over: the helper was sent for after its first
				// stripe (nothing is known yet of how long help takes), is
				// parked on the hook, and ran none of it.
				v.AtTail(1, func() {
					bar.enter(3, "tail")
					defer bar.leave()
					if s := v.Stats(); s.Wakes != 1 || s.HelpedStripes != 0 || s.SoloBatches != 1 {
						t.Errorf("round %d: after the first batch: %v; want one wake-up and no help", round, s)
					}
				})
			}
		}
		release()
		v.RunUntil(ticks)
		if roused.Load() == 0 {
			t.Fatalf("round %d: the helper was never roused", round)
		}
		if len(bar.errs) > 0 {
			t.Fatalf("round %d: %v", round, bar.errs)
		}
		for key := uint64(1); key <= stripes; key++ {
			if len(logs[key]) != ticks {
				t.Fatalf("round %d: stripe %d ran %d events, want %d: %v", round, key, len(logs[key]), ticks, logs[key])
			}
			for i, at := range logs[key] {
				if at != vtime.Ticks(i+1) {
					t.Fatalf("round %d: stripe %d out of order: %v", round, key, logs[key])
				}
			}
		}
	}
}

// TestStripedBatchAllocatesNothing: once its buffers have grown, a
// multi-stripe batch — popped, grouped, claimed, helper sent for or not —
// allocates nothing.
func TestStripedBatchAllocatesNothing(t *testing.T) {
	v := stripedWith(1)
	defer v.Close()
	const stripes = 8
	spinners := make([]spinner, stripes)
	for i := range spinners {
		s := &spinners[i]
		*s = spinner{v: v, key: uint64(i + 1), horizon: 1 << 40}
		v.Schedule(&s.ev, 1, s.key, s)
	}
	// The tail event of each tick hands the clock to the test: one step is
	// one multi-stripe batch and the tail behind it.
	step, done := make(chan struct{}), make(chan struct{})
	var quit atomic.Bool
	tail := &ownedEvent{}
	tail.fire = func() {
		done <- struct{}{}
		<-step
		if !quit.Load() {
			v.schedule(&tail.ev, v.Now()+1, 1, 0, tail)
		}
	}
	v.schedule(&tail.ev, 1, 1, 0, tail)
	v.Hold()()
	<-done
	allocs := testing.AllocsPerRun(200, func() {
		step <- struct{}{}
		<-done
	})
	quit.Store(true)
	step <- struct{}{}
	if allocs != 0 {
		t.Fatalf("a steady-state batch of %d stripes allocates %.1f objects, want 0", stripes, allocs)
	}
	if s := v.Stats(); s.Stripes < 200*stripes {
		t.Fatalf("the measured batches were not multi-stripe: %v", s)
	}
}

// TestStripedStopWithHelpers: Close and RunUntil return only once the
// helpers are gone, wherever they were — asleep, roused and not yet at the
// cursor, or inside a stripe — and a claimed batch runs whole first.
func TestStripedStopWithHelpers(t *testing.T) {
	returns := func(stop func()) <-chan struct{} {
		stopped := make(chan struct{})
		go func() {
			stop()
			close(stopped)
		}()
		return stopped
	}
	stays := func(t *testing.T, what string, stopped <-chan struct{}) {
		t.Helper()
		select {
		case <-stopped:
			t.Fatalf("%s returned with a helper still out", what)
		case <-time.After(20 * time.Millisecond):
		}
	}
	for _, name := range []string{"Close", "RunUntil"} {
		// stop lets the clock go, waits for the helper to be where the case
		// wants it, and calls Close — or calls RunUntil, which lets go itself,
		// and then waits.
		stop := func(v *Virtual, ready func()) <-chan struct{} {
			if name == "Close" {
				v.Hold()()
				ready()
				return returns(v.Close)
			}
			stopped := returns(func() { v.RunUntil(1) })
			ready()
			return stopped
		}
		t.Run(name+"/asleep", func(t *testing.T) {
			v := stripedWith(3)
			await(t, stop(v, func() {}), name)
			v.helpers.Wait()
		})
		t.Run(name+"/roused", func(t *testing.T) {
			v := stripedWith(1)
			gate, atHook := make(chan struct{}), make(chan struct{})
			v.helperHook = func() {
				close(atHook)
				<-gate
			}
			var ran atomic.Int32
			for key := uint64(1); key <= 3; key++ {
				v.AtKeyed(1, key, func() { ran.Add(1) })
			}
			stopped := stop(v, func() { await(t, atHook, "the helper") })
			stays(t, name, stopped)
			close(gate)
			await(t, stopped, name)
			if n := ran.Load(); n != 3 {
				t.Fatalf("%d of 3 events ran", n)
			}
		})
		t.Run(name+"/mid-stripe", func(t *testing.T) {
			v := stripedWith(1)
			gate := make(chan struct{})
			var inside, ran atomic.Int32
			v.AtKeyed(1, 1, func() { ran.Add(1) }) // the dispatcher's first: it then sends for help
			for key := uint64(2); key <= 3; key++ {
				v.AtKeyed(1, key, func() {
					inside.Add(1)
					<-gate
					ran.Add(1)
				})
			}
			stopped := stop(v, func() {
				for inside.Load() < 2 { // the dispatcher in one stripe, the helper in the other
					time.Sleep(time.Millisecond)
				}
			})
			stays(t, name, stopped)
			close(gate)
			await(t, stopped, name)
			if n := ran.Load(); n != 3 {
				t.Fatalf("%d of the claimed batch's 3 events ran", n)
			}
		})
	}
}

// TestPacedStripesNotBeforeWallTime: striping changes who runs a stripe,
// not when — on a paced clock with helpers no stripe of a batch starts
// before the wall time of its tick.
func TestPacedStripesNotBeforeWallTime(t *testing.T) {
	const tick = 500 * time.Microsecond
	begin := time.Now()
	v := newVirtual(4, 3, tick)
	defer v.Close()
	const ticks, stripes = 30, 6
	var wg sync.WaitGroup
	wg.Add(ticks * stripes)
	release := v.Hold()
	for at := vtime.Ticks(1); at <= ticks; at++ {
		for key := uint64(1); key <= stripes; key++ {
			v.AtKeyed(at, key, func() {
				defer wg.Done()
				if ran, due := time.Since(begin), time.Duration(at)*tick; ran < due || v.Now() < at {
					t.Errorf("stripe %d of tick %d ran %v after the clock started, due at %v (Now %d)", key, at, ran, due, v.Now())
				}
				for spin := time.Now(); time.Since(spin) < 20*time.Microsecond; {
				}
			})
		}
	}
	release()
	wg.Wait()
}
