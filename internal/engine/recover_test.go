package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/shard"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// shardConfig is a free-clock engine of the given shard count whose
// live-run gate never binds.
func shardConfig(shards int, seed int64) engine.Config {
	return engine.Config{
		Shards:        shards,
		Deterministic: true,
		Workers:       4,
		Seed:          seed,
		MaxLive:       1 << 10,
	}
}

// crash runs the first life of a two-shard engine over a durable store —
// six rings, half of them cross-shard so escalation state is live — and
// kills it mid-run from a scheduler callback (one well-defined cut tick
// across all units). It returns the store's directory, the cut, and the
// offers: each asset they give was minted before the cut, so a recovery
// re-mints it.
func crash(t *testing.T) (dir string, cut vtime.Ticks, offers []core.Offer) {
	t.Helper()
	dir = t.TempDir()
	store, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	cfg := shardConfig(2, 16)
	cfg.Store = store
	s := engine.New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The rings and the kill are one schedule, installed under one hold: the
	// book fills at tick 0, the local rings clear at the first round, the
	// sweep at tick 8 (4 × the default cadence of 2) escalates the
	// cross-shard ones and the coordinator clears them, and the kill one tick
	// later finds all of it in flight.
	release := s.Scheduler().Hold()
	pool := engine.NewMap(2).Pools(2)
	for ring := 0; ring < 6; ring++ {
		chains := pool[ring%2]
		if ring%2 == 0 {
			chains = []string{pool[0][0], pool[1][0]}
		}
		for i := 0; i < 3; i++ {
			o := engine.LoadOfferOn(ring, i, 3, ring, chains[i%len(chains)])
			if _, err := s.Submit(o); err != nil {
				t.Fatalf("ring %d offer %d: %v", ring, i, err)
			}
			offers = append(offers, o)
		}
	}
	cutCh := make(chan struct{})
	s.Scheduler().At(9, func() {
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
	return dir, cut, offers
}

// crashAndRecover crashes a two-shard first life (crash) and recovers the
// WAL onto the given shard count — the WAL carries shard-independent
// identities, so the fold re-partitions cleanly onto any map — then runs
// that second life to quiescence and stops it.
func crashAndRecover(t *testing.T, shards int) (*engine.Engine, *durable.Recovery, []core.Offer) {
	t.Helper()
	dir, cut, offers := crash(t)
	b, rec, err := durable.Recover(shardConfig(shards, 16), durable.RecoverOptions{Dir: dir, CutTick: cut})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := b.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return b, rec, offers
}

// TestStopNeverStarted: Stop on an engine that was never started returns
// at once, on one shard and on four — built fresh, and recovered with
// orders pending, as a harness that only times a cold recovery does. The
// pending orders are rejected on the way out; with shards, Stop must not
// wait for an escalation sweep that never ran.
func TestStopNeverStarted(t *testing.T) {
	dir, cut, _ := crash(t)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			recovered, _, err := durable.Recover(shardConfig(shards, 16), durable.RecoverOptions{Dir: dir, CutTick: cut})
			if err != nil {
				t.Fatal(err)
			}
			if recovered.Pending() == 0 {
				t.Fatal("the recovered engine has nothing pending")
			}
			for _, tc := range []struct {
				name string
				e    *engine.Engine
			}{{"fresh", engine.New(shardConfig(shards, 16))}, {"recovered", recovered}} {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := tc.e.Stop(ctx)
				cancel()
				if err != nil {
					t.Fatalf("%s: Stop: %v", tc.name, err)
				}
				if n := tc.e.Pending(); n != 0 {
					t.Errorf("%s: %d orders still pending after Stop", tc.name, n)
				}
			}
		})
	}
}

// TestShardCrashRecovery: kill the whole sharded engine mid-run and
// rebuild it from the single shared WAL. Recovery folds the log once,
// re-partitions orders by the same asset→shard map, restores identities
// into the shared keyring, and the second life drains every resumed or
// still-pending order with ledgers intact — including orders that had
// already escalated to the coordinator before the crash (they fold back
// to their home shards and re-escalate by age).
func TestShardCrashRecovery(t *testing.T) {
	b, rec, _ := crashAndRecover(t, 4)
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
// re-mints sit on no unit's intake list, so the engine audits them in the
// same pass as those, on one shard as on four. Lock one of them into a
// contract nobody will ever settle: the quiescent conservation audit must
// name it stranded, and the integrity audit — which allows stranded escrow
// — must still pass.
func TestShardAuditCatchesTamperedRecoveredAsset(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			b, _, offers := crashAndRecover(t, shards)
			if err := b.VerifyConservation(); err != nil {
				t.Fatalf("before tampering: %v", err)
			}
			m := offers[0].Give[0]
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
			want := fmt.Sprintf("asset %s/%s stranded in escrow", m.Chain, m.Asset)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("conservation audit over a trapped recovered asset: %v, want %q", err, want)
			}
			if err := b.VerifyLedgerIntegrity(); err != nil {
				t.Fatalf("integrity audit must allow stranded escrow: %v", err)
			}
		})
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
// engine.Config and of shard.Config is a setting each caller, test and
// benchmark configuration multiplies by, so adding one is a deliberate act
// that edits this list.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want []string
	}{
		{"engine.Config", exportedFields(engine.Config{}), []string{
			"Workers", "ClearInterval", "ClearEvery", "MaxBatch", "Tick", "Delta", "Kind",
			"AdversaryRate", "Behaviors", "Seed", "Deterministic", "Parallel", "Store",
			"MaxLive", "Commitment", "Shards",
		}},
		{"shard.Config", exportedFields(shard.Config{}), []string{"Shards", "Engine"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s exported fields changed:\n got %v\nwant %v", tc.name, tc.got, tc.want)
		}
	}
}
