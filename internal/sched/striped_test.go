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

// stripedWith is a free scheduler with exactly this many helpers, whatever
// the core count: the helper paths run at GOMAXPROCS=1 too, where
// NewVirtual would keep none.
func stripedWith(helpers int) *Virtual { return newVirtual(helpers, 0) }

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

// root is one event a schedule books before the run, in booking order.
type root struct {
	at    vtime.Ticks
	level int8
	key   uint64
	owned bool // on owner storage rather than a closure
	depth int  // generations of same-tick cascades onto its own stripe
	held  bool // takes a Hold and has another goroutine book an event under it
	stops bool // calls Stop on the next root, booked right behind it into its batch
}

// randomRoots draws a seeded schedule: several ticks and levels, up to a
// dozen stripes, mixed closure and owner-storage events, some cascading,
// some holding the clock, and some stopping the event booked behind them —
// on their own stripe or on another.
func randomRoots(seed int64) []root {
	rng := rand.New(rand.NewSource(seed))
	const ticks, levels = 5, 3
	stripes := 1 + rng.Intn(12)
	draw := func(at vtime.Ticks, level int8) root {
		return root{at: at, level: level, key: 1 + uint64(rng.Intn(stripes)), owned: rng.Intn(2) == 0}
	}
	var roots []root
	for at := vtime.Ticks(1); at <= ticks; at++ {
		for level := int8(0); level < levels; level++ {
			for n := rng.Intn(40); n > 0; n-- {
				r := draw(at, level)
				if rng.Intn(3) == 0 {
					r.depth = 1 + rng.Intn(3)
				}
				r.held = rng.Intn(8) == 0
				r.stops = rng.Intn(10) == 0
				roots = append(roots, r)
				if r.stops {
					roots = append(roots, draw(at, level))
				}
			}
		}
	}
	return roots
}

// fixedRoots is a hand-written schedule: three ticks booked out of order,
// four stripes (the unkeyed one among them) with a same-tick cascade each,
// a level-2 event a stripe and an unkeyed level-1 tail, then a lone batch in
// which stripe 1 stops a sibling on stripe 2.
func fixedRoots() []root {
	var roots []root
	for _, at := range []vtime.Ticks{3, 1, 2} {
		for rep := 0; rep < 3; rep++ {
			for key := uint64(0); key < 4; key++ {
				roots = append(roots, root{at: at, key: key, depth: 1}, root{at: at, level: 2, key: key})
			}
			roots = append(roots, root{at: at, level: 1})
		}
	}
	return append(roots, root{at: 9, key: 1, stops: true}, root{at: 9, key: 2})
}

// stamp is what an event is given at booking: its tick, its level and the
// booking index. The oracle is that every stripe runs its events in
// strictly increasing stamp order.
type stamp struct {
	at    vtime.Ticks
	level int8
	index int
}

func (s stamp) after(o stamp) bool {
	if s.at != o.at {
		return s.at > o.at
	}
	if s.level != o.level {
		return s.level > o.level
	}
	return s.index > o.index
}

// scheduleRun is what one scheduler made of a schedule: the root and cascade
// IDs each stripe ran, how many ran of how many booked, how the same-batch
// Stops went, and every broken guarantee.
type scheduleRun struct {
	stripes          map[uint64][]int
	ran, booked      int
	stopped          int
	holds, underHold int
	errs             []string
}

// runSchedule books roots on v under a hold and runs them to the last
// root's tick. Events cascade onto their own stripe at their own tick; a
// held root's Hold outlives its callback, and the event another goroutine
// books under it still lands on its tick, in the batch after its own —
// where in its stripe is that goroutine's luck, so it is stamp-checked and
// counted, not logged. Everything an event does is in its root, so two
// schedulers given the same roots are given the same schedule.
func runSchedule(roots []root, v *Virtual) scheduleRun {
	var (
		mu    sync.Mutex
		res   = scheduleRun{stripes: make(map[uint64][]int)}
		bar   barrier
		index int
		last  = make(map[uint64]stamp)
	)
	// book stamps fn and schedules it, both under mu, so booking order is
	// the scheduler's scheduling order.
	book := func(at vtime.Ticks, level int8, key uint64, owned bool, fn func(stamp)) *Event {
		mu.Lock()
		defer mu.Unlock()
		index++
		s := stamp{at, level, index}
		run := func() { fn(s) }
		if owned {
			o := &ownedEvent{fire: run}
			v.Schedule(&o.ev, at, level, key, o)
			return &o.ev
		}
		return v.AtLevel(at, level, key, run)
	}
	// enter checks an event against the barrier, the clock and its stripe's
	// stamp order; the caller leaves the barrier.
	rank := func(s stamp, gen int) int64 { return (int64(s.at)*8+int64(s.level))*8 + int64(gen) }
	enter := func(s stamp, key uint64, gen int, what string) {
		bar.enter(rank(s, gen), what)
		mu.Lock()
		defer mu.Unlock()
		if now := v.Now(); now != s.at {
			res.errs = append(res.errs, fmt.Sprintf("%s booked for tick %d ran at %d", what, s.at, now))
		}
		if prev, ok := last[key]; ok && !s.after(prev) {
			res.errs = append(res.errs, fmt.Sprintf("%s stamped %v ran on stripe %d after %v", what, s, key, prev))
		}
		last[key] = s
	}
	var event func(id int, r root, gen int) func(stamp)
	event = func(id int, r root, gen int) func(stamp) {
		return func(s stamp) {
			what := fmt.Sprint("event ", id)
			enter(s, r.key, gen, what)
			defer bar.leave()
			mu.Lock()
			res.ran++
			res.stripes[r.key] = append(res.stripes[r.key], id)
			mu.Unlock()
			if r.depth > 0 {
				child := root{at: r.at, level: r.level, key: r.key, depth: r.depth - 1}
				book(r.at, r.level, r.key, false, event(id+1_000_000, child, gen+1))
			}
			if r.held {
				release := v.Hold()
				go func() {
					time.Sleep(20 * time.Microsecond)
					book(r.at, r.level, r.key, false, func(s stamp) {
						enter(s, r.key, gen+1, "booked under the hold of "+what)
						defer bar.leave()
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
	timers := make([]*Event, len(roots))
	var horizon vtime.Ticks
	for i, r := range roots {
		horizon = max(horizon, r.at)
		res.booked += 1 + r.depth
		if r.held {
			res.holds++
		}
		fn := event(i+1, r, 0)
		if r.stops {
			inner, victim := fn, &timers[i+1]
			fn = func(s stamp) {
				stopped := (*victim).Stop()
				mu.Lock()
				if stopped {
					res.stopped++
				}
				mu.Unlock()
				inner(s)
			}
		}
		timers[i] = book(r.at, r.level, r.key, r.owned, fn)
	}
	release()
	v.RunUntil(horizon)
	res.errs = append(res.errs, bar.errs...)
	return res
}

// TestStripedRandomSchedules runs seeded schedules and a fixed one on
// dispatchers with no helper, one and seven. Each is held to the oracle —
// every stripe runs its events in strictly increasing (tick, level, booking
// index) — and to the rest of the batch guarantee: nothing of a batch starts
// before the batch before it has wholly returned, every booked event runs,
// a Hold taken inside a callback pins the tick, and the one Stop rule holds
// (a batch is claimed when popped, so a same-batch Stop reports false and
// its victim runs). All three must log the same events on every stripe in
// the same order. Each schedule is its own subtest.
func TestStripedRandomSchedules(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	type input struct {
		name  string
		roots []root
	}
	inputs := []input{{"fixed", fixedRoots()}}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		inputs = append(inputs, input{fmt.Sprint("seed=", seed), randomRoots(seed)})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			var want scheduleRun
			for _, helpers := range []int{0, 1, 7} {
				got := runSchedule(in.roots, stripedWith(helpers))
				if len(got.errs) > 0 {
					t.Fatalf("%d helpers: %v", helpers, got.errs)
				}
				if got.ran != got.booked {
					t.Fatalf("%d helpers: %d of %d booked events ran", helpers, got.ran, got.booked)
				}
				if got.underHold != got.holds {
					t.Fatalf("%d helpers: %d of %d events booked under a callback's hold ran", helpers, got.underHold, got.holds)
				}
				if got.stopped != 0 {
					t.Fatalf("%d helpers: %d same-batch Stops cancelled a claimed batch's event", helpers, got.stopped)
				}
				if helpers == 0 {
					want = got
					continue
				}
				if len(got.stripes) != len(want.stripes) {
					t.Fatalf("%d helpers: %d stripes ran, with no helper %d", helpers, len(got.stripes), len(want.stripes))
				}
				for key, w := range want.stripes {
					if g := got.stripes[key]; fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("%d helpers: stripe %d ran %v, with no helper %v", helpers, key, g, w)
					}
				}
			}
		})
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
			v.Schedule(&p.ev, 1, 0, p.key, p)
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
		p.v.Schedule(&p.ev, at+1, 0, p.key, p)
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
				v.AtLevel(at, 0, key, func() {
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
				v.AtLevel(1, 1, 0, func() {
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
		v.Schedule(&s.ev, 1, 0, s.key, s)
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
			v.Schedule(&tail.ev, v.Now()+1, 1, 0, tail)
		}
	}
	v.Schedule(&tail.ev, 1, 1, 0, tail)
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
				v.AtLevel(1, 0, key, func() { ran.Add(1) })
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
			v.AtLevel(1, 0, 1, func() { ran.Add(1) }) // the dispatcher's first: it then sends for help
			for key := uint64(2); key <= 3; key++ {
				v.AtLevel(1, 0, key, func() {
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
	v := newVirtual(3, tick)
	defer v.Close()
	const ticks, stripes = 30, 6
	var wg sync.WaitGroup
	wg.Add(ticks * stripes)
	release := v.Hold()
	for at := vtime.Ticks(1); at <= ticks; at++ {
		for key := uint64(1); key <= stripes; key++ {
			v.AtLevel(at, 0, key, func() {
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
