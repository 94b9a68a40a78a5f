package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func detConfig(shards int, seed int64) Config {
	return Config{
		Shards: shards,
		Engine: engine.Config{
			Deterministic: true,
			Workers:       4,
			Seed:          seed,
			MaxLive:       1 << 10,
		},
	}
}

// submitRing books one barter ring whose member chains follow the given
// list (cycled), returning the order IDs.
func submitRing(t *testing.T, s *ShardedEngine, ring, size int, chains []string) []engine.OrderID {
	t.Helper()
	ids := make([]engine.OrderID, 0, size)
	for i := 0; i < size; i++ {
		id, err := s.Submit(engine.LoadOfferOn(ring, i, size, ring, chains[i%len(chains)]))
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
	pool := s.ShardMap().Pools(2)
	ids := submitRing(t, s, 0, 3, pool[1])
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, ok := s.Order(id)
		if !ok || snap.Status != engine.StatusSettled {
			t.Fatalf("order %d: %+v, want settled", id, snap)
		}
	}
	if n := len(s.Coordinator().Orders()); n != 0 {
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
	pool := s.ShardMap().Pools(2)
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
		if !ok || snap.Status != engine.StatusSettled {
			t.Fatalf("order %d: %+v, want settled", id, snap)
		}
		if snap.Swap == "" {
			t.Fatalf("order %d settled with no swap tag", id)
		}
	}
	// The settle must have happened on the coordinator: escalation
	// withdraws the orders from the shard books and re-books them there.
	coordOrders := s.Coordinator().Orders()
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
// must not stack N default-sized pools (the oversubscription this PR
// fixes). Every inner engine shares the one injected cache.
func TestShardSharedCacheBatchWorkers(t *testing.T) {
	cfg := detConfig(4, 14)
	cfg.Engine.Workers = 8
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
	cfg.Engine.Kind = core.KindGeneral
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pool := s.ShardMap().Pools(2)
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

// crashAndRecover runs the first life of a two-shard deployment over a
// durable store — six rings, half of them cross-shard so escalation state
// is live — kills it mid-run from a scheduler callback (one well-defined
// cut tick across all engines), then recovers the WAL onto
// four shards, runs that second life to quiescence and stops it.
func crashAndRecover(t *testing.T) (*ShardedEngine, *durable.Recovery) {
	t.Helper()
	dir := t.TempDir()
	store, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	cfg := detConfig(2, 16)
	cfg.Engine.Store = store
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The rings and the kill are one schedule, installed under one hold: the
	// book fills at tick 0, the local rings clear at the first round, the
	// sweep at tick 8 escalates the cross-shard ones and the coordinator
	// clears them, and the kill one tick later finds all of it in flight.
	release := s.Scheduler().Hold()
	pool := s.ShardMap().Pools(2)
	for ring := 0; ring < 6; ring++ {
		chains := pool[ring%2]
		if ring%2 == 0 {
			chains = []string{pool[0][0], pool[1][0]}
		}
		submitRing(t, s, ring, 3, chains)
	}
	cutCh := make(chan struct{})
	var cut vtime.Ticks
	s.Scheduler().At(vtime.Ticks(s.escAfter+1), func() {
		cut = s.Kill()
		close(cutCh)
	})
	release()
	select {
	case <-cutCh:
	case <-time.After(time.Minute):
		t.Fatal("kill never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life on a different shard count: the WAL carries
	// shard-independent identities, so the fold re-partitions cleanly
	// onto any map.
	b, rec, err := Recover(detConfig(4, 16), durable.RecoverOptions{Dir: dir, CutTick: cut})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return b, rec
}

// TestShardCrashRecovery: kill the whole sharded deployment mid-run and
// rebuild it from the single shared WAL. Recovery folds the log once,
// re-partitions orders by the same asset→shard map, restores identities
// into the shared keyring, and the second life drains every resumed or
// still-pending order with ledgers intact — including orders that had
// already escalated to the coordinator before the crash (they fold back
// to their home shards and re-escalate by age).
func TestShardCrashRecovery(t *testing.T) {
	b, rec := crashAndRecover(t)
	if !b.Recovered() {
		t.Fatal("recovered engine does not report Recovered")
	}
	if rec.Events == 0 {
		t.Fatal("recovery replayed no events")
	}
	if rec.Resumed == 0 {
		t.Fatal("the crash caught no swap in flight")
	}
	if err := b.VerifyLedgerIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Every order the first life booked at or before the cut must exist
	// in the second life, terminal.
	orders := b.Orders()
	if len(orders) == 0 {
		t.Fatal("no orders recovered")
	}
	for _, o := range orders {
		if o.Status != engine.StatusSettled && o.Status != engine.StatusRejected {
			t.Fatalf("recovered order %d left non-terminal: %+v", o.ID, o)
		}
	}
	rep := b.Report()
	if rep.SwapsFailed > 0 {
		t.Fatalf("%d swaps failed after recovery", rep.SwapsFailed)
	}
}

// TestShardAuditCatchesTamperedRecoveredAsset: the assets a recovery
// re-mints sit on no inner engine's audit list, so the sharded entry point
// audits them itself, with the engine's own audit (engine.VerifyMinted).
// Lock one of them into a contract nobody will ever settle: the quiescent
// conservation audit must name it stranded, and the integrity audit — which
// allows stranded escrow — must still pass.
func TestShardAuditCatchesTamperedRecoveredAsset(t *testing.T) {
	b, _ := crashAndRecover(t)
	if err := b.VerifyConservation(); err != nil {
		t.Fatalf("before tampering: %v", err)
	}
	if len(b.recMinted) == 0 {
		t.Fatal("recovery re-minted nothing")
	}
	m := b.recMinted[0]
	ch := b.Registry().Chain(m.Chain)
	owner, _ := ch.OwnerOf(m.Asset)
	if owner.Kind != chain.OwnerParty {
		t.Fatalf("recovered asset %s/%s not party-owned after a clean second life: %v", m.Chain, m.Asset, owner)
	}
	trap, err := htlc.NewHTLC(htlc.HTLCParams{
		ID: "trap", Timeout: 1 << 40, Party: owner.Party, Counter: "nobody", Asset: m.Asset,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.PublishContract(owner.Party, trap); err != nil {
		t.Fatal(err)
	}
	err = b.VerifyConservation()
	if err == nil || !strings.Contains(err.Error(), "shard: recovered") || !strings.Contains(err.Error(), "stranded in escrow") {
		t.Fatalf("conservation audit over a trapped recovered asset: %v", err)
	}
	if err := b.VerifyLedgerIntegrity(); err != nil {
		t.Fatalf("integrity audit must allow stranded escrow: %v", err)
	}
}

// exportedFields lists a struct type's exported field names in order.
func exportedFields(v any) []string {
	var out []string
	for t, i := reflect.TypeOf(v), 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			out = append(out, f.Name)
		}
	}
	return out
}

// TestConfigSurface pins the option surface: every exported field of
// engine.Config and of Config is a setting each caller, test and benchmark
// configuration multiplies by, so adding one is a deliberate act that edits
// this list. What a deployment shares with its engines is not on it: that
// travels in engine.Host, which engine.NewHost builds.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want []string
	}{
		{"engine.Config", exportedFields(engine.Config{}), []string{
			"Workers", "ClearInterval", "ClearEvery", "MaxBatch", "Tick", "Delta", "Kind",
			"AdversaryRate", "Behaviors", "Seed", "AdaptiveDelta", "MinDelta", "MaxDelta",
			"Deterministic", "Parallel", "Store", "MaxLive", "Commitment",
		}},
		{"shard.Config", exportedFields(Config{}), []string{"Shards", "EscalateAfter", "Engine"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s exported fields changed:\n got %v\nwant %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestShardDefaultsMatchEngine: a zero Config and a zero engine.Config
// resolve to the same worker budget, tick and clearing cadence — the
// sharded engine reads them from engine.Config.WithDefaults, not from a
// second copy of the defaults.
func TestShardDefaultsMatchEngine(t *testing.T) {
	// Room for the whole budget, so the batch pool's size is the worker
	// budget and not the machine's clamp on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	want := engine.Config{}.WithDefaults()
	s := New(Config{})
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
	evs []engine.Event
}

func (r *recorder) Append(ev engine.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recorder) events() []engine.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]engine.Event(nil), r.evs...)
}

// intakeLine is what the held-clock test compares of an intake event.
func intakeLine(ev engine.Event) string {
	switch ev.Kind {
	case engine.EvIdentity:
		return fmt.Sprintf("%s@%d %s", ev.Kind, ev.Tick, ev.Party)
	case engine.EvMinted:
		return fmt.Sprintf("%s@%d %s/%s", ev.Kind, ev.Tick, ev.Chain, ev.Asset)
	}
	return fmt.Sprintf("%s@%d order=%d", ev.Kind, ev.Tick, ev.Order)
}

// TestHeldClockTakesNoIntake: Submit only posts. On a held free clock an
// order shows at once (Pending, Orders), but nothing is logged and no chain
// records anything until the clock lets go; then the intake event books
// every order at tick 0 in posting order — the party's identity, the
// assets it mints, the booking — whether one engine takes the offers or
// four shards and a coordinator do.
func TestHeldClockTakesNoIntake(t *testing.T) {
	type target interface {
		Start() error
		Submit(core.Offer) (engine.OrderID, error)
		Pending() int
		Orders() []engine.OrderSnapshot
		Registry() *chain.Registry
		Scheduler() sched.Scheduler
		Stop(context.Context) error
	}
	for _, tc := range []struct {
		name  string
		build func(engine.Store) target
	}{
		{"plain", func(st engine.Store) target {
			cfg := detConfig(4, 17).Engine
			cfg.Store = st
			return engine.New(cfg)
		}},
		{"4 shards", func(st engine.Store) target {
			cfg := detConfig(4, 17)
			cfg.Engine.Store = st
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
			var ids []engine.OrderID
			for ring := 0; ring < 10; ring++ {
				chains := pools[ring%4]
				if ring%3 == 0 { // a ring that spans two shards
					chains = []string{pools[ring%4][0], pools[(ring+1)%4][0]}
				}
				for i := 0; i < 3; i++ {
					o := engine.LoadOfferOn(ring, i, 3, ring%5, chains[i%len(chains)])
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
			seen := make(map[string]bool)
			for k, o := range offers {
				if !seen[string(o.Party)] {
					seen[string(o.Party)] = true
					want = append(want, fmt.Sprintf("%s@0 %s", engine.EvIdentity, o.Party))
				}
				for _, tr := range o.Give {
					want = append(want, fmt.Sprintf("%s@0 %s/%s", engine.EvMinted, tr.Chain, tr.Asset))
				}
				want = append(want, fmt.Sprintf("%s@0 order=%d", engine.EvBooked, ids[k]))
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
		})
	}
}

// TestShardRefusesDuplicateRoutedID: an order ID keys its engine's order
// map, so a routed order under an ID the shard already holds is refused at
// the post, and the order that holds the ID is untouched.
func TestShardRefusesDuplicateRoutedID(t *testing.T) {
	s := New(detConfig(2, 19))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pool := s.ShardMap().Pools(2)
	ids := submitRing(t, s, 0, 3, pool[0])
	home, _ := s.ShardMap().OfOffer(engine.LoadOfferOn(0, 0, 3, 0, pool[0][0]))
	dup := engine.LoadOfferOn(1, 0, 3, 1, pool[0][0])
	if _, err := s.Shard(home).SubmitRouted(ids[0], dup); !errors.Is(err, engine.ErrBadOffer) {
		t.Fatalf("duplicate routed ID %d: %v, want ErrBadOffer", ids[0], err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	orders := s.Orders()
	if len(orders) != 3 {
		t.Fatalf("%d orders, want the ring's 3", len(orders))
	}
	for _, o := range orders {
		if o.Status != engine.StatusSettled || o.Party == string(dup.Party) {
			t.Fatalf("order %d: %s by %s, want the ring's own, settled", o.ID, o.Status, o.Party)
		}
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
	chainName := s.ShardMap().Pools(2)[0][0]
	if _, err := s.Submit(engine.LoadOfferOn(0, 0, 3, 0, chainName)); err != nil {
		t.Fatal(err)
	}
	s.Scheduler().Hold()()
	// The lone offer escalates, and the sweep parks on the empty shard books.
	for s.sweep.Armed() || s.shardsPending() > 0 {
		time.Sleep(time.Millisecond)
	}
	release := s.Scheduler().Hold()
	bad := engine.LoadOfferOn(0, 0, 3, 0, chainName)
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
	if !ok || o.Status != engine.StatusRejected || !strings.Contains(o.Reason, "amount") {
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
	cfg.Engine.Parallel = true
	cfg.EscalateAfter = 1
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Scheduler().Hold()() // posting while the clock runs is the test
	pools := s.ShardMap().Pools(2)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []engine.OrderID
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
					id, err := s.Submit(engine.LoadOfferOn(ring, i, 3, ring, chains[i%2]))
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
	shown := make(map[engine.OrderID]int)
	for _, o := range s.Orders() {
		shown[o.ID]++
		if o.Status != engine.StatusSettled && o.Status != engine.StatusRejected {
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
	t.Logf("%d orders accepted, %d of them escalated", len(accepted), len(s.Coordinator().Orders()))
	if err := s.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}
