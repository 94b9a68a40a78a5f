package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// sliceBook is the order book this package had before book.go, kept word
// for word as the reference model: a FIFO slice that dispatch leaves stale
// until the round compacts it, per-party counts, and a scan that walks the
// slice until it has met every party. Only the visit counter is new.
type sliceBook struct {
	pending   []*order
	pendingN  int
	pendingBy map[chain.PartyID]int
	visits    uint64
}

// add is addPendingLocked.
func (m *sliceBook) add(o *order) {
	m.pending = append(m.pending, o)
	m.pendingBy[o.offer.Party]++
	m.pendingN++
}

// dec is decPendingLocked.
func (m *sliceBook) dec(party chain.PartyID) {
	m.pendingN--
	if n := m.pendingBy[party]; n > 1 {
		m.pendingBy[party] = n - 1
	} else {
		delete(m.pendingBy, party)
	}
}

// compact is compactPendingLocked.
func (m *sliceBook) compact() {
	kept := m.pending[:0]
	for _, o := range m.pending {
		m.visits++
		if o.status == StatusPending {
			kept = append(kept, o)
		}
	}
	m.pending = kept
}

// scan is clearRound's walk of the book.
func (m *sliceBook) scan(limit int) []*order {
	byParty := make(map[chain.PartyID]*order)
	var batch []*order
	for _, o := range m.pending {
		if len(batch) >= limit || len(byParty) == len(m.pendingBy) {
			break
		}
		m.visits++
		if _, seen := byParty[o.offer.Party]; seen {
			continue
		}
		byParty[o.offer.Party] = o
		batch = append(batch, o)
	}
	return batch
}

// takeEscalatable is Escalate's walk of a shard's book.
func (m *sliceBook) takeEscalatable(cutoff vtime.Ticks) []*order {
	var out []*order
	kept := m.pending[:0]
	for _, o := range m.pending {
		if o.status == StatusPending && !o.submittedTick.After(cutoff) {
			out = append(out, o)
			m.dec(o.offer.Party)
			continue
		}
		kept = append(kept, o)
	}
	m.pending = kept
	return out
}

// bookPair drives one stream of engine-shaped operations through the book
// and through the model, and compares them after every one.
type bookPair struct {
	t      testing.TB
	book   book
	model  sliceBook
	names  []chain.PartyID
	orders []*order // what unit.orders would hold: escalated orders are gone
	nextID OrderID
}

func newBookPair(t testing.TB, parties int) *bookPair {
	p := &bookPair{t: t, book: newBook(), model: sliceBook{pendingBy: make(map[chain.PartyID]int)}}
	for i := 0; i < parties; i++ {
		p.names = append(p.names, chain.PartyID(fmt.Sprintf("p%02d", i)))
	}
	return p
}

// submit books one order for the party, as admit and NewRecovered do.
func (p *bookPair) submit(party int, tick vtime.Ticks) {
	p.nextID++
	o := &order{
		id:            p.nextID,
		offer:         core.Offer{Party: p.names[party]},
		status:        StatusPending,
		submittedTick: tick,
	}
	p.orders = append(p.orders, o)
	p.model.add(o)
	p.book.add(o)
}

// dispatch is clearGroup's hand-over of a cleared group: the model only
// balances its counts, and compacts once at the end of the round.
func (p *bookPair) dispatch(group []*order) {
	for _, o := range group {
		o.status = StatusExecuting
		p.model.dec(o.offer.Party)
		p.book.remove(o)
	}
}

// reject is rejectOrders.
func (p *bookPair) reject(batch []*order) {
	for _, o := range batch {
		if o.status != StatusPending {
			continue
		}
		o.status = StatusRejected
		p.model.dec(o.offer.Party)
		p.book.remove(o)
	}
	p.model.compact()
}

// escalate is unit.escalate's take from a shard; the orders it returns
// leave that shard's order map.
func (p *bookPair) escalate(cutoff vtime.Ticks) {
	want := p.model.takeEscalatable(cutoff)
	var got []*order
	p.book.takeThrough(cutoff, func(o *order) { got = append(got, o) })
	if !slices.Equal(got, want) {
		p.t.Fatalf("escalated through tick %d: book %v, model %v", cutoff, ids(got), ids(want))
	}
	for _, o := range got {
		p.orders = slices.DeleteFunc(p.orders, func(x *order) bool { return x == o })
	}
}

func ids(orders []*order) []OrderID {
	out := make([]OrderID, len(orders))
	for i, o := range orders {
		out[i] = o.id
	}
	return out
}

// checkCounts compares what Pending, PendingOf and PendingParties report,
// and the pending orders themselves in book order. The model's slice may
// be stale (mid-round), so it is read the way its readers did: by status.
func (p *bookPair) checkCounts() {
	p.t.Helper()
	if got, want := p.book.len(), p.model.pendingN; got != want {
		p.t.Fatalf("Pending: book %d, model %d", got, want)
	}
	if got, want := p.book.partyCount(), len(p.model.pendingBy); got != want {
		p.t.Fatalf("PendingParties: book %d, model %d", got, want)
	}
	for _, name := range p.names {
		if got, want := p.book.of(name), p.model.pendingBy[name]; got != want {
			p.t.Fatalf("PendingOf(%s): book %d, model %d", name, got, want)
		}
	}
	var want []*order
	for _, o := range p.model.pending {
		if o.status == StatusPending {
			want = append(want, o)
		}
	}
	if got := p.book.all(); !slices.Equal(got, want) {
		p.t.Fatalf("pending orders: book %v, model %v", ids(got), ids(want))
	}
}

// check is checkCounts plus the round's batch at every limit that can
// tell two books apart, and an audit of the book's own links. Call it
// between operations only: the model's scan trusts a compacted slice.
func (p *bookPair) check() {
	p.t.Helper()
	p.checkCounts()
	for limit := 1; limit <= len(p.names)+1; limit++ {
		if got, want := p.book.batch(nil, limit), p.model.scan(limit); !slices.Equal(got, want) {
			p.t.Fatalf("batch at limit %d: book %v, model %v", limit, ids(got), ids(want))
		}
	}
	p.audit()
}

// audit checks every link of the book against a plain walk of its FIFO.
func (p *bookPair) audit() {
	p.t.Helper()
	b := &p.book
	chains := make(map[chain.PartyID][]*order)
	var prev *order
	n := 0
	for o := b.first; o != nil; prev, o = o, o.next {
		if o.prev != prev {
			p.t.Fatalf("order %d: prev link broken", o.id)
		}
		if prev != nil && o.pos <= prev.pos {
			p.t.Fatalf("order %d: position %d after %d", o.id, o.pos, prev.pos)
		}
		if prev != nil && prev.pos >= b.lastLate && o.submittedTick.Before(prev.submittedTick) {
			p.t.Fatalf("order %d: submit tick %d after %d, past the last late booking", o.id, o.submittedTick, prev.submittedTick)
		}
		chains[o.offer.Party] = append(chains[o.offer.Party], o)
		n++
	}
	if b.last != prev || b.n != n {
		p.t.Fatalf("book: last/n = %v/%d, walk says %v/%d", b.last, b.n, prev, n)
	}
	if len(b.parties) != len(chains) {
		p.t.Fatalf("book: %d party records, %d parties pending", len(b.parties), len(chains))
	}
	var heads []*order
	for party, c := range chains {
		if pc := b.parties[party]; pc.n != len(c) || pc.tail != c[len(c)-1] {
			p.t.Fatalf("party %s: record %+v, chain of %d", party, pc, len(c))
		}
		for i, o := range c {
			var pprev, pnext *order
			if i > 0 {
				pprev = c[i-1]
			}
			if i+1 < len(c) {
				pnext = c[i+1]
			}
			if o.pprev != pprev || o.pnext != pnext {
				p.t.Fatalf("order %d: party chain links broken", o.id)
			}
		}
		heads = append(heads, c[0])
	}
	slices.SortFunc(heads, func(x, y *order) int { return cmp.Compare(x.pos, y.pos) })
	if !slices.Equal(b.heads, heads) {
		p.t.Fatalf("heads %v, want %v", ids(b.heads), ids(heads))
	}
	for _, o := range p.orders {
		if (o.status == StatusPending) != (o.pos != 0) {
			p.t.Fatalf("order %d: status %s, position %d", o.id, o.status, o.pos)
		}
	}
}

// opReader deals a byte stream out as operation arguments; an exhausted
// stream reads as zeros.
type opReader struct{ data []byte }

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return int(v)
}

// runBookOps decodes data into a stream of operations shaped like the
// engine's — intake, clearing rounds that dispatch some groups and reject
// others, stray rejections, escalation sweeps, late re-booking, the drain's
// reject-everything — and runs it through a bookPair.
func runBookOps(t testing.TB, data []byte) {
	const parties = 12
	p := newBookPair(t, parties)
	r := &opReader{data}
	var now vtime.Ticks
	for len(r.data) > 0 {
		switch op := r.next() % 16; {
		case op < 7: // intake at the current tick
			now += vtime.Ticks(r.next() % 3)
			p.submit(r.next()%parties, now)
		case op < 9: // an escalated or restored order, booked late under its first tick
			p.submit(r.next()%parties, now-vtime.Ticks(r.next()%16))
		case op < 12: // a clearing round
			batch := p.book.batch(nil, 1+r.next()%(parties+2))
			dispatchMask, rejectMask := r.next()|r.next()<<8, r.next()|r.next()<<8
			dispatched := false
			for i := 0; i < len(batch); i += 3 {
				group := batch[i:min(i+3, len(batch))]
				switch {
				case rejectMask&(1<<(i/3)) != 0: // asset spent, Clear or Prepare failed
					p.reject(group[:1+i/3%len(group)])
				case dispatchMask&(1<<(i/3)) != 0:
					p.dispatch(group)
					dispatched = true
				}
				p.checkCounts()
			}
			if dispatched {
				p.model.compact()
			}
		case op < 14: // rejections from outside a round: any order, any status, repeats
			var batch []*order
			for k := 1 + r.next()%4; k > 0 && len(p.orders) > 0; k-- {
				batch = append(batch, p.orders[(r.next()|r.next()<<8)%len(p.orders)])
			}
			p.reject(batch)
		case op < 15: // the shard's escalation sweep
			p.escalate(now - vtime.Ticks(r.next()%8))
		default: // Drain's rejection of a stuck book
			p.reject(p.book.all())
		}
		p.check()
	}
}

// TestBookMatchesSliceScan drives random operation streams through the
// book and the slice it replaced. The fuzz target below explores further
// from the same decoder.
func TestBookMatchesSliceScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(1800))
		rng.Read(data)
		if seed%4 == 0 {
			// A book that mostly fills: rounds and rejections reach deep chains.
			for i := 0; i < len(data); i += 5 {
				data[i] %= 9
			}
		}
		runBookOps(t, data)
	}
}

func FuzzBookMatchesSliceScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 9, 13, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runBookOps(t, data) })
}

// bookedRings books rings × 3 orders over 8 identity groups into a fresh
// pair, ring r on group r mod 8 — deepbook's shape.
func bookedRings(t testing.TB, rings int) *bookPair {
	p := newBookPair(t, 24)
	for r := 0; r < rings; r++ {
		for i := 0; i < 3; i++ {
			p.submit(r%8*3+i, vtime.Ticks(r))
		}
	}
	return p
}

// serveRound is one capacity-limited round on a pair of bookedRings: the
// batch at the given limit, of which the first `groups` rings — the
// partitioner orders groups by party name — are dispatched.
func (p *bookPair) serveRound(limit, groups int) {
	batch := p.book.batch(nil, limit)
	if want := p.model.scan(limit); !slices.Equal(batch, want) {
		p.t.Fatalf("batch: book %v, model %v", ids(batch), ids(want))
	}
	slices.SortFunc(batch, func(x, y *order) int {
		return cmp.Compare(x.offer.Party, y.offer.Party)
	})
	p.dispatch(batch[:min(3*groups, len(batch))])
	p.model.compact()
}

// TestBookRoundCostIndependentOfDepth pins the point of the book on a
// count, not a timer: the orders a round visits. Against the model, a
// round's visits are bounded by its limit and equal at both depths while
// the slice's grow with the book; through a real engine with a small
// live-run gate, the same rounds visit the same number of orders whether
// 1 000 or 100 000 rings are booked behind them.
func TestBookRoundCostIndependentOfDepth(t *testing.T) {
	deep := 100_000
	if raceEnabled {
		deep = 10_000
	}
	depths := []int{1_000, deep}

	t.Run("model", func(t *testing.T) {
		const limit, rounds = 64, 100
		var bookVisits, modelVisits [2]uint64
		for d, rings := range depths {
			p := bookedRings(t, rings)
			p.book.visits, p.model.visits = 0, 0
			for r := 0; r < rounds; r++ {
				before := p.book.visits
				p.serveRound(limit, 3)
				if v := p.book.visits - before; v > limit {
					t.Fatalf("%d rings, round %d: %d visits, limit %d", rings, r, v, limit)
				}
			}
			p.checkCounts()
			bookVisits[d], modelVisits[d] = p.book.visits, p.model.visits
		}
		t.Logf("visits over %d rounds at %v rings: book %v, slice %v", rounds, depths, bookVisits, modelVisits)
		if bookVisits[0] != bookVisits[1] {
			t.Errorf("book visits depend on depth: %v", bookVisits)
		}
		if modelVisits[1] < 5*modelVisits[0] {
			t.Errorf("the slice model's visits should grow with depth: %v", modelVisits)
		}
	})

	t.Run("engine", func(t *testing.T) {
		const killAt = 600
		var visits [2]uint64
		var rounds, swaps [2]int
		for d, rings := range depths {
			cfg := testConfig()
			cfg.Deterministic = true
			cfg.MaxLive = 4
			e := New(cfg)
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			killed := make(chan struct{})
			release := e.Scheduler().Hold()
			e.Scheduler().At(killAt, func() {
				e.Kill()
				close(killed)
			})
			for r := 0; r < rings; r++ {
				for i := 0; i < 3; i++ {
					if _, err := e.Submit(LoadOffer(r, i, 3, r%8)); err != nil {
						release()
						t.Fatal(err)
					}
				}
			}
			release()
			<-killed
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err := e.Stop(ctx)
			cancel()
			if err != nil {
				t.Fatalf("Stop: %v", err)
			}
			u := e.units[0]
			u.mu.Lock()
			visits[d] = u.book.visits
			u.mu.Unlock()
			rounds[d], swaps[d] = e.ClearRounds(), e.Report().SwapsFinished
			if limit := uint64(e.cfg.MaxBatch); visits[d] > uint64(rounds[d])*limit {
				t.Errorf("%d rings: %d visits in %d rounds, limit %d a round", rings, visits[d], rounds[d], limit)
			}
			if e.Pending() != 3*(rings-swaps[d]) {
				t.Errorf("%d rings, %d swaps: %d orders left pending", rings, swaps[d], e.Pending())
			}
		}
		t.Logf("to tick %d at %v rings: %v swaps, %v rounds, %v orders visited", killAt, depths, swaps, rounds, visits)
		if swaps[0] == 0 || visits[0] == 0 {
			t.Fatalf("nothing cleared before the cut: swaps %v, visits %v", swaps, visits)
		}
		if visits[0] != visits[1] || rounds[0] != rounds[1] || swaps[0] != swaps[1] {
			t.Errorf("the run to tick %d depends on book depth: visits %v, rounds %v, swaps %v", killAt, visits, rounds, swaps)
		}
	})
	// As in TestAllocationBudget: the wall-clock tests that run next get a
	// collected heap, not a background cycle over these books.
	runtime.GC()
}

// TestStuckHeadDoesNotStarveTheBook: what can never match collects at the
// head of a FIFO book. With more of it than the capacity-limited window
// holds, a round must look past the window before it calls the book stuck:
// the rings behind clear, on either clock, and only the remainder is
// rejected at drain.
func TestStuckHeadDoesNotStarveTheBook(t *testing.T) {
	for _, free := range []bool{true, false} {
		cfg := testConfig()
		cfg.Deterministic = free
		cfg.MaxLive = 2 // the window is its 64-offer floor
		e := New(cfg)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		const partial, rings = 100, 5
		release := e.Scheduler().Hold()
		for r := 0; r < partial; r++ {
			if _, err := e.Submit(LoadOffer(r, 0, 3, r)); err != nil { // a third of a ring
				t.Fatal(err)
			}
		}
		for r := partial; r < partial+rings; r++ {
			for i := 0; i < 3; i++ {
				if _, err := e.Submit(LoadOffer(r, i, 3, r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		release()
		drainAndStop(t, e)
		settled, rejected := 0, 0
		for _, o := range e.Orders() {
			switch o.Status {
			case StatusSettled:
				settled++
			case StatusRejected:
				rejected++
			}
		}
		if settled != 3*rings || rejected != partial {
			t.Errorf("free clock %v: %d settled, %d rejected; want the %d ring offers settled and the %d partial ones rejected",
				free, settled, rejected, 3*rings, partial)
		}
	}
}

// TestBookConcurrentUse reaches the book from everywhere the engine does
// at once — intake goroutines, the intake and clearing callbacks (dispatch,
// and the rejection of orders whose asset an earlier swap spent), the
// escalation sweep at its tail level moving orders from two shards to the
// coordinator, and readers of the fair-shedding counts — so that a run
// under -race shows the unit mutexes cover all of it.
func TestBookConcurrentUse(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	cfg.MaxLive = 8 // keep a book behind the rounds
	cfg.Shards = 2  // rings that span both shards escalate
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const submitters, ringsEach, pool = 4, 30, 6
	const submitted = 3 * (submitters*ringsEach + submitters*ringsEach/5)
	var intakeDone atomic.Bool
	// Intake racing a running clock is the test: let go of the birth hold.
	e.Scheduler().Hold()()

	var readers, intake sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !intakeDone.Load() {
			if of, parties := e.PendingOf("r0-p0"), e.PendingParties(); of < 0 || of > submitted || parties > 3*pool*len(e.units) {
				t.Errorf("PendingOf %d, PendingParties %d", of, parties)
				return
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < submitters; g++ {
		intake.Add(1)
		go func() {
			defer intake.Done()
			for r := g * ringsEach; r < (g+1)*ringsEach; r++ {
				// Every fifth ring is offered twice: the copy's assets are
				// spent by the time it reaches a round.
				for copies := 1 + (r%5+1)/5; copies > 0; copies-- {
					for i := 0; i < 3; i++ {
						if _, err := e.Submit(LoadOffer(r, i, 3, r%pool)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	intake.Wait()
	intakeDone.Store(true)
	readers.Wait()
	drainAndStop(t, e)
	orders, escalated := e.Orders(), e.Coordinator().snapshots()
	if len(orders) != submitted {
		t.Errorf("%d orders, want %d submitted", len(orders), submitted)
	}
	rejected := 0
	for _, o := range orders {
		if o.Status != StatusSettled && o.Status != StatusRejected {
			t.Errorf("order %d not terminal: %s", o.ID, o.Status)
		}
		if o.Status == StatusRejected {
			rejected++
		}
	}
	t.Logf("%d submitted: %d settled, %d rejected, %d escalated", submitted, submitted-rejected, rejected, len(escalated))
	for _, u := range e.units {
		if u.pending() != 0 || u.pendingParties() != 0 || u.book.first != nil || len(u.book.heads) != 0 {
			t.Errorf("book not empty after drain: %d orders, %d parties", u.pending(), u.pendingParties())
		}
	}
	if err := e.VerifyConservation(); err != nil {
		t.Error(err)
	}
}

// BenchmarkClearRoundDepth times one capacity-limited round on the book
// alone — take the batch, dispatch three rings, book them again at the
// tail so the depth holds — at three depths.
func BenchmarkClearRoundDepth(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rings int
	}{{"1k", 1_000}, {"10k", 10_000}, {"100k", 100_000}} {
		b.Run(bc.name, func(b *testing.B) {
			bk := &bookedRings(b, bc.rings).book
			batch := make([]*order, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch = bk.batch(batch[:0], 64)
				for _, o := range batch[:9] {
					bk.remove(o)
				}
				for _, o := range batch[:9] {
					bk.add(o)
				}
			}
		})
	}
}

// TestOrderChunkConcurrentSubmit posts orders from several goroutines at
// once while the running clock books and settles them, across a dozen of
// the unit's order chunks: every order stays its own record whichever
// chunk it was cut from and whoever cut the one beside it, and under
// -race the unit mutex covers each cut.
func TestOrderChunkConcurrentSubmit(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.Scheduler().Hold()() // intake racing a running clock is the test
	const submitters = 4
	ringsEach := orderChunkLen
	offers := make([]map[OrderID]core.Offer, submitters)
	var intake sync.WaitGroup
	for g := range submitters {
		offers[g] = make(map[OrderID]core.Offer)
		intake.Add(1)
		go func() {
			defer intake.Done()
			for r := g * ringsEach; r < (g+1)*ringsEach; r++ {
				for i := 0; i < 3; i++ {
					o := LoadOffer(r, i, 3, r)
					id, err := e.Submit(o)
					if err != nil {
						t.Error(err)
						return
					}
					offers[g][id] = o
				}
			}
		}()
	}
	intake.Wait()
	drainAndStop(t, e)
	u := e.units[0]
	n := 0
	for _, byID := range offers {
		for id, want := range byID {
			n++
			o := u.orders[id]
			if o == nil || o.id != id || o.status != StatusSettled || !reflect.DeepEqual(o.offer, want) {
				t.Fatalf("order %d reads %+v, want settled %+v", id, o, want)
			}
		}
	}
	if want := submitters * ringsEach * 3; n != want || len(u.orders) != want {
		t.Fatalf("%d orders submitted, %d held, want %d", n, len(u.orders), want)
	}
}

// TestOrderChunkFillsItsSizeClass: a unit cuts its orders from chunks of
// one allocation each, and a chunk fills the 10 240-byte size class it is
// sized for, with less than one order's room to spare.
func TestOrderChunkFillsItsSizeClass(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the paths being counted")
	}
	const chunks = 100
	// The counts are the process's: an allocation by another goroutine
	// meanwhile (the runtime's, the test framework's) only ever adds, so
	// the least of three attempts is the chunks' own.
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		u := &unit{}
		keep := make([]*order, 0, chunks*orderChunkLen)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range chunks * orderChunkLen {
			keep = append(keep, u.newOrder())
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if objects != chunks {
		t.Errorf("%d orders took %d allocations, want %d", chunks*orderChunkLen, objects, chunks)
	}
	size := int(unsafe.Sizeof(order{}))
	if per := int(bytes) / chunks; per != 10240 || per-8-orderChunkLen*size >= size {
		t.Errorf("a chunk of %d orders of %d bytes takes %d bytes of heap, want 10240 with under an order spare",
			orderChunkLen, size, per)
	}
}

// TestSwapTagMatchesSprintf pins swapTag to the fmt form it replaced, and
// checks that tags cut from a chunk keep their bytes once later tags have
// filled it and moved on to the next.
func TestSwapTagMatchesSprintf(t *testing.T) {
	var tags strings.Builder
	for _, seq := range []uint64{
		0, 1, 9, 10, 99, 100, 12345, 99999, 100000, 999999,
		1000000, 1234567, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1<<64 - 1,
	} {
		if got, want := swapTag(&tags, seq), fmt.Sprintf("swap-%06d", seq); got != want {
			t.Errorf("swapTag(%d) = %q, want %q", seq, got, want)
		}
	}
	kept := make([]string, 3*tagChunk/len("swap-000000"))
	for i := range kept {
		kept[i] = swapTag(&tags, uint64(i))
	}
	for i, got := range kept {
		if want := fmt.Sprintf("swap-%06d", i); got != want {
			t.Fatalf("tag %d reads %q once the chunks moved on, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { swapTag(&tags, 1234567) }); n != 0 {
		t.Errorf("swapTag allocates %.0f objects a tag, want 0", n)
	}
}
