package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/sched"
)

// detConfig is a free-clock engine of the given shard count whose live-run
// gate never binds.
func detConfig(shards int, seed int64) Config {
	return Config{
		Shards:        shards,
		Deterministic: true,
		Workers:       4,
		Seed:          seed,
		MaxLive:       1 << 10,
	}
}

// submitRing books one barter ring whose member chains follow the given
// list (cycled), returning the order IDs.
func submitRing(t *testing.T, s *Engine, ring, size int, chains []string) []OrderID {
	t.Helper()
	ids := make([]OrderID, 0, size)
	for i := 0; i < size; i++ {
		id, err := s.Submit(LoadOfferOn(ring, i, size, ring, chains[i%len(chains)]))
		if err != nil {
			t.Fatalf("ring %d offer %d: %v", ring, i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestShardLocalRingClearsLocally: a ring drawn entirely from one
// shard's chain pool settles in that shard — the coordinator never
// books an order, which is the whole point of sharding (per-round
// clearing cost is O(shard book), not O(global book)).
func TestShardLocalRingClearsLocally(t *testing.T) {
	s := New(detConfig(2, 11))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pool := s.m.Pools(2)
	ids := submitRing(t, s, 0, 3, pool[1])
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, ok := s.Order(id)
		if !ok || snap.Status != StatusSettled {
			t.Fatalf("order %d: %+v, want settled", id, snap)
		}
	}
	if n := len(s.Coordinator().snapshots()); n != 0 {
		t.Fatalf("coordinator booked %d orders for a shard-local ring", n)
	}
	if err := s.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestShardEscalationClearsCrossRing: a ring whose members' chains live
// in different shards cannot clear in any one shard book. Its offers
// age past the escalation cutoff, the sweep withdraws them to the
// coordinator, and the cross-shard ring settles there — with every
// asset accounted for afterwards.
func TestShardEscalationClearsCrossRing(t *testing.T) {
	s := New(detConfig(2, 12))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pool := s.m.Pools(2)
	// Members alternate shards: offers 0,2 in shard 0's pool, offer 1 in
	// shard 1's.
	ids := submitRing(t, s, 0, 3, []string{pool[0][0], pool[1][0]})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, ok := s.Order(id)
		if !ok || snap.Status != StatusSettled {
			t.Fatalf("order %d: %+v, want settled", id, snap)
		}
		if snap.Swap == "" {
			t.Fatalf("order %d settled with no swap tag", id)
		}
	}
	// The settle must have happened on the coordinator: escalation
	// withdraws the orders from the shard books and re-books them there.
	coordOrders := s.Coordinator().snapshots()
	if len(coordOrders) != 3 {
		t.Fatalf("coordinator holds %d orders, want the whole 3-ring", len(coordOrders))
	}
	if err := s.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.SwapsFinished != 1 {
		t.Fatalf("SwapsFinished = %d, want 1", rep.SwapsFinished)
	}
}

// TestShardRemapRefoldsLedgers: the same offer stream executed on 1, 2,
// and 4 shards must fold to the same ledgers — identical per-chain
// asset totals and identical swap counts. Remapping is an execution
// choice; the economics cannot move.
func TestShardRemapRefoldsLedgers(t *testing.T) {
	// The stream is generated against the 4-shard pools whatever the
	// execution shard count, exactly like the scenario harness does.
	gen := NewMap(4).Pools(2)
	run := func(shards int) (map[string]uint64, int) {
		s := New(detConfig(shards, 13))
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		for ring := 0; ring < 8; ring++ {
			home := ring % 4
			chains := gen[home]
			if ring%3 == 0 { // every third ring spans two generation pools
				chains = []string{gen[home][0], gen[(home+1)%4][0]}
			}
			submitRing(t, s, ring, 3, chains)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyConservation(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		totals := make(map[string]uint64)
		for _, name := range s.Registry().Names() {
			ch := s.Registry().Chain(name)
			for id := range ch.Snapshot() {
				a, ok := ch.Asset(id)
				if !ok {
					t.Fatalf("shards=%d: asset %s vanished from %s", shards, id, name)
				}
				totals[name] += a.Amount
			}
		}
		return totals, s.Report().SwapsFinished
	}
	baseTotals, baseSwaps := run(1)
	for _, n := range []int{2, 4} {
		totals, swaps := run(n)
		if swaps != baseSwaps {
			t.Fatalf("shards=%d finished %d swaps, 1-shard finished %d", n, swaps, baseSwaps)
		}
		if len(totals) != len(baseTotals) {
			t.Fatalf("shards=%d has %d chains, 1-shard has %d", n, len(totals), len(baseTotals))
		}
		for name, amt := range baseTotals {
			if totals[name] != amt {
				t.Fatalf("shards=%d: chain %s totals %d, 1-shard %d", n, name, totals[name], amt)
			}
		}
	}
}

// TestShardSharedCacheBatchWorkers: the hashkey batch-verify pool is
// sized ONCE from the machine-wide worker budget — N shards on one box
// must not stack N default-sized pools. Every unit shares the one cache.
func TestShardSharedCacheBatchWorkers(t *testing.T) {
	cfg := detConfig(4, 14)
	cfg.Workers = 8
	s := New(cfg)
	want := 8
	if n := runtime.GOMAXPROCS(0); want > n {
		want = n
	}
	if got := s.host.Cache.BatchWorkers(); got != want {
		t.Fatalf("shared cache batch workers = %d, want min(total Workers, GOMAXPROCS) = %d", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.Stop(ctx)
}

// TestShardSignsPerSwap pins the ed25519 signing floor across the
// sharded deployment: identities live in ONE shared keyring, so a party
// whose offers land in different shards still signs under one cached
// expanded key, and the merged report's signature count comes from that
// single meter (never summed per engine). A 3-ring general-kind swap
// needs one plan signature per member; re-running the same parties
// through more rings must not re-derive or re-count identities. Rings are
// single-leader components, which by default clear on signature-free
// HTLCs, so the fixture forces the hashkey protocol.
func TestShardSignsPerSwap(t *testing.T) {
	cfg := detConfig(2, 15)
	cfg.Kind = core.KindGeneral
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pool := s.m.Pools(2)
	for ring := 0; ring < 6; ring++ {
		chains := pool[ring%2]
		if ring%3 == 0 {
			chains = []string{pool[0][0], pool[1][0]}
		}
		submitRing(t, s, ring, 3, chains)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.SwapsFinished != 6 {
		t.Fatalf("SwapsFinished = %d, want 6", rep.SwapsFinished)
	}
	if rep.Signs != s.Keyring().Signs() {
		t.Fatalf("report signs %d != keyring meter %d", rep.Signs, s.Keyring().Signs())
	}
	if rep.Signs == 0 || rep.SignsPerSwap <= 0 {
		t.Fatalf("no signatures metered: %+v", rep)
	}
	if rep.SwapsGeneral != 6 || rep.SwapsSingleLeader != 0 {
		t.Fatalf("protocol split = %d general / %d single-leader, want 6 / 0 across the merged shards",
			rep.SwapsGeneral, rep.SwapsSingleLeader)
	}
	// Signing floor: each of the 18 distinct parties signs its hashkey
	// chain links, but identity derivation is once-per-party, so the
	// per-swap figure stays bounded (one order of magnitude headroom over
	// the 3-party plan; a regression that re-signs per verification or
	// per hop blows straight past this).
	if rep.SignsPerSwap > 30 {
		t.Fatalf("signs per swap = %.1f, want <= 30", rep.SignsPerSwap)
	}
}

// TestShardDefaultsMatchEngine: a sharded engine resolves the zero
// Config's worker budget, tick and clearing cadence exactly as a plain one
// does — every unit reads Config.withDefaults, not a second copy of the
// defaults — and escalates after 4 × that cadence, a fixed rule.
func TestShardDefaultsMatchEngine(t *testing.T) {
	// Room for the whole budget, so the batch pool's size is the worker
	// budget and not the machine's clamp on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	want := Config{}.withDefaults()
	s := New(Config{Shards: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer s.Stop(ctx)
	if got := s.host.Cache.BatchWorkers(); got != want.Workers {
		t.Errorf("total worker budget %d, engine default %d", got, want.Workers)
	}
	if got := s.Tick(); got != want.Tick {
		t.Errorf("tick %v, engine default %v", got, want.Tick)
	}
	if got := s.escAfter; got != 4*want.ClearEvery {
		t.Errorf("escalation after %d ticks, want 4 × the engine's default cadence %d", got, want.ClearEvery)
	}
}

// recorder is a Store that keeps every event in append order.
type recorder struct {
	mu  sync.Mutex
	evs []Event
}

func (r *recorder) Append(ev Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recorder) events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.evs...)
}

// intakeLine is what the held-clock test compares of an intake event.
func intakeLine(ev Event) string {
	if ev.Kind == EvMinted {
		return fmt.Sprintf("%s@%d %s/%s", ev.Kind, ev.Tick, ev.Chain, ev.Asset)
	}
	return fmt.Sprintf("%s@%d order=%d", ev.Kind, ev.Tick, ev.Order)
}

// TestHeldClockTakesNoIntake: Submit only posts. On a held free clock an
// order shows at once (Pending, Orders), but nothing is logged and no chain
// records anything until the clock lets go; then the intake event books
// every order at tick 0 in posting order — the assets it mints, the
// booking — whether one engine takes the offers or four shards and a
// coordinator do. No identity is logged: a key is derived, not stored.
func TestHeldClockTakesNoIntake(t *testing.T) {
	type target interface {
		Start() error
		Submit(core.Offer) (OrderID, error)
		Pending() int
		Orders() []OrderSnapshot
		Registry() *chain.Registry
		Scheduler() *sched.Virtual
		Stop(context.Context) error
	}
	for _, tc := range []struct {
		name  string
		build func(Store) target
	}{
		{"plain", func(st Store) target {
			cfg := detConfig(1, 17)
			cfg.Store = st
			return New(cfg)
		}},
		{"4 shards", func(st Store) target {
			cfg := detConfig(4, 17)
			cfg.Store = st
			return New(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := new(recorder)
			e := tc.build(rec)
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			pools := NewMap(4).Pools(2)
			release := e.Scheduler().Hold()
			var offers []core.Offer
			var ids []OrderID
			for ring := 0; ring < 10; ring++ {
				chains := pools[ring%4]
				if ring%3 == 0 { // a ring that spans two shards
					chains = []string{pools[ring%4][0], pools[(ring+1)%4][0]}
				}
				for i := 0; i < 3; i++ {
					o := LoadOfferOn(ring, i, 3, ring%5, chains[i%len(chains)])
					id, err := e.Submit(o)
					if err != nil {
						release()
						t.Fatal(err)
					}
					offers, ids = append(offers, o), append(ids, id)
				}
			}
			held := len(rec.events())
			for _, name := range e.Registry().Names() {
				if n := len(e.Registry().Chain(name).Records()); n != 0 {
					t.Errorf("chain %s holds %d records under the hold", name, n)
				}
			}
			pending, shown := e.Pending(), len(e.Orders())
			release()
			if held != 0 {
				t.Errorf("%d events logged under the hold, want none", held)
			}
			if pending != len(offers) || shown != len(offers) {
				t.Errorf("under the hold: Pending %d, Orders %d, want both %d", pending, shown, len(offers))
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := e.Stop(ctx); err != nil {
				t.Fatal(err)
			}

			var want []string
			for k, o := range offers {
				for _, tr := range o.Give {
					want = append(want, fmt.Sprintf("%s@0 %s/%s", EvMinted, tr.Chain, tr.Asset))
				}
				want = append(want, fmt.Sprintf("%s@0 order=%d", EvBooked, ids[k]))
			}
			evs := rec.events()
			if len(evs) < len(want) {
				t.Fatalf("%d events logged, want at least the %d of intake", len(evs), len(want))
			}
			for i, w := range want {
				if got := intakeLine(evs[i]); got != w {
					t.Fatalf("intake event %d: %s, want %s", i, got, w)
				}
			}
			for _, ev := range evs {
				if ev.Kind == EvIdentity {
					t.Fatalf("logged %s for %s", ev.Kind, ev.Party)
				}
			}
		})
	}
}

// TestShardDrainHearsIntakeRejection: Drain counts a posted shard order as
// pending and waits for the sweep to park, so an order rejected at intake
// must wake the sweep as a booked one does. The sweep is parked, an offer
// whose amount contradicts the ledger is posted under a hold, and the
// deployment stops: the rejection, not the context, must end the drain.
func TestShardDrainHearsIntakeRejection(t *testing.T) {
	s := New(detConfig(4, 20))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	chainName := s.m.Pools(2)[0][0]
	if _, err := s.Submit(LoadOfferOn(0, 0, 3, 0, chainName)); err != nil {
		t.Fatal(err)
	}
	s.Scheduler().Hold()()
	// The lone offer escalates, and the sweep parks on the empty shard books.
	for s.sweep.Armed() || s.shardsPending() > 0 {
		time.Sleep(time.Millisecond)
	}
	release := s.Scheduler().Hold()
	bad := LoadOfferOn(0, 0, 3, 0, chainName)
	bad.Give[0].Amount++
	id, err := s.Submit(bad)
	if err != nil {
		release()
		t.Fatal(err)
	}
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stopped <- s.Stop(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Drain count the posted order first
	release()
	if err := <-stopped; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	o, ok := s.Order(id)
	if !ok || o.Status != StatusRejected || !strings.Contains(o.Reason, "amount") {
		t.Fatalf("mismatching order %d: %+v, want rejected naming the amounts", id, o)
	}
}

// TestShardDrainRacesEscalation: Drain hears from the sweep, on the
// timeline, that the shard books are empty, while goroutines still post
// rings that span shards and the sweep escalates them every tick. Every
// accepted order must appear in Orders exactly once and end terminal: none
// is lost on its move from a shard to the coordinator, none is shown twice.
func TestShardDrainRacesEscalation(t *testing.T) {
	cfg := detConfig(4, 18)
	cfg.Parallel = true
	cfg.ClearEvery = 1 // orders escalate after 4 ticks, while rings still arrive
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Scheduler().Hold()() // posting while the clock runs is the test
	pools := s.m.Pools(2)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []OrderID
		under    = make(chan struct{}) // closed once the first rings are posted
	)
	const perGoroutine = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perGoroutine; r++ {
				ring := perGoroutine*g + r
				chains := []string{pools[ring%4][0], pools[(ring+1)%4][0]}
				for i := 0; i < 3; i++ {
					id, err := s.Submit(LoadOfferOn(ring, i, 3, ring, chains[i%2]))
					if err != nil {
						return // intake closed mid-drain: expected
					}
					mu.Lock()
					if accepted = append(accepted, id); len(accepted) == 30 {
						close(under)
					}
					mu.Unlock()
				}
			}
		}()
	}
	<-under
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	shown := make(map[OrderID]int)
	for _, o := range s.Orders() {
		shown[o.ID]++
		if o.Status != StatusSettled && o.Status != StatusRejected {
			t.Errorf("order %d not terminal: %s", o.ID, o.Status)
		}
	}
	for _, id := range accepted {
		if shown[id] != 1 {
			t.Errorf("accepted order %d shows %d times in Orders", id, shown[id])
		}
	}
	if len(shown) != len(accepted) {
		t.Errorf("Orders shows %d orders, %d were accepted", len(shown), len(accepted))
	}
	escalated := len(s.Coordinator().snapshots())
	t.Logf("%d orders accepted, %d of them escalated", len(accepted), escalated)
	if escalated == 0 {
		t.Error("no order escalated: the drain raced no sweep")
	}
	if err := s.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestOneShardBuildsNoCoordinator: Shards 0 and 1 build the plain engine —
// one unit clearing at level 1 on stripe 0, no coordinator and no sweep —
// so nothing it runs is ever scheduled at level 2 or 3. Rings whose members
// four shards would split escalate there: the WAL shows each order booked
// twice and the coordinator's prepare records. On one shard each order is
// booked once and nothing is prepared.
func TestOneShardBuildsNoCoordinator(t *testing.T) {
	pools := NewMap(4).Pools(2)
	run := func(shards int) (e *Engine, booked, prepared int) {
		rec := new(recorder)
		cfg := detConfig(shards, 21)
		cfg.Store = rec
		e = New(cfg)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		release := e.Scheduler().Hold()
		for ring := 0; ring < 4; ring++ {
			chains := []string{pools[ring][0], pools[(ring+1)%4][0]}
			for i := 0; i < 3; i++ {
				if _, err := e.Submit(LoadOfferOn(ring, i, 3, ring, chains[i%2])); err != nil {
					release()
					t.Fatal(err)
				}
			}
		}
		release()
		drainAndStop(t, e)
		for _, ev := range rec.events() {
			switch ev.Kind {
			case EvBooked:
				booked++
			case EvPrepared:
				prepared++
			}
		}
		return e, booked, prepared
	}
	for _, shards := range []int{0, 1} {
		e, booked, prepared := run(shards)
		if e.Coordinator() != nil || e.sweep != nil || e.Shards() != 1 || len(e.units) != 1 {
			t.Fatalf("Shards %d: %d shards, %d units, coordinator %v, sweep %v; want the plain engine",
				shards, e.Shards(), len(e.units), e.Coordinator() != nil, e.sweep != nil)
		}
		if u := e.units[0]; u.stripe != 0 || u.shardOf != nil || u.onIntake != nil {
			t.Fatalf("Shards %d: the unit clears on stripe %d, coordinator %v, wakes a sweep %v",
				shards, u.stripe, u.shardOf != nil, u.onIntake != nil)
		}
		if booked != 12 || prepared != 0 {
			t.Fatalf("Shards %d: %d bookings and %d prepare records, want 12 and 0", shards, booked, prepared)
		}
	}
	if e, booked, prepared := run(4); e.Coordinator() == nil || booked <= 12 || prepared == 0 {
		t.Fatalf("4 shards: %d bookings, %d prepare records: the stream escalated nothing", booked, prepared)
	}
}

// noteSheds runs NoteShed(3) and NoteShedFrom("mallory", 2) in one
// scheduler callback, as the load generator does, and waits for it.
func noteSheds(t *testing.T, e *Engine) {
	t.Helper()
	s := e.Scheduler()
	done := make(chan struct{})
	release := s.Hold()
	s.At(s.Now()+3, func() {
		e.NoteShed(3)
		e.NoteShedFrom("mallory", 2)
		close(done)
	})
	release()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shed callback never ran")
	}
}

// TestNoteShedCounted: arrivals shed before intake reach the report's
// OffersShed, attributed or not, on one engine and on a sharded one.
func TestNoteShedCounted(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := New(detConfig(shards, 1))
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		noteSheds(t, e)
		drainAndStop(t, e)
		if got := e.Report().OffersShed; got != 5 {
			t.Errorf("shards %d: OffersShed %d, want 5", shards, got)
		}
	}
}

// TestNoteShedFromLogsParty: each shed call appends one EvShed at the
// callback's tick with its count, and NoteShedFrom's party rides along so
// a recovered log can tell whose traffic was turned away.
func TestNoteShedFromLogsParty(t *testing.T) {
	rec := new(recorder)
	cfg := detConfig(1, 1)
	cfg.Store = rec
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	noteSheds(t, e)
	drainAndStop(t, e)
	var got []string
	for _, ev := range rec.events() {
		if ev.Kind == EvShed {
			got = append(got, fmt.Sprintf("%s@%d count=%d party=%q", ev.Kind, ev.Tick, ev.Count, ev.Party))
		}
	}
	want := []string{`shed@3 count=3 party=""`, `shed@3 count=2 party="mallory"`}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("shed events:\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
