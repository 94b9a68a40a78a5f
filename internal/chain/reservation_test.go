package chain

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestReserveLifecycle(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	if err := r.Chain("btc").RegisterAsset(Asset{ID: "utxo-1", Amount: 5}, "alice"); err != nil {
		t.Fatal(err)
	}

	if err := r.Reserve("btc", "utxo-1", "alice", "swap-1"); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	// Re-reserving under the same holder is idempotent.
	if err := r.Reserve("btc", "utxo-1", "alice", "swap-1"); err != nil {
		t.Fatalf("same-holder reserve: %v", err)
	}
	// A different swap must be refused.
	if err := r.Reserve("btc", "utxo-1", "alice", "swap-2"); !errors.Is(err, ErrAssetReserved) {
		t.Fatalf("conflicting reserve: err = %v, want ErrAssetReserved", err)
	}
	// Release by a non-holder is a no-op.
	r.Release("btc", "utxo-1", "swap-2")
	if _, held := r.ReservationHolder("btc", "utxo-1"); !held {
		t.Fatal("non-holder release dropped the reservation")
	}
	r.Release("btc", "utxo-1", "swap-1")
	if err := r.Reserve("btc", "utxo-1", "alice", "swap-2"); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
}

func TestReserveReportsReservedBeforeUnavailable(t *testing.T) {
	// While another swap holds an asset, contenders must see "reserved"
	// (retry later) even if the ownership check would also fail — e.g.
	// because the holder's swap has escrowed or moved the asset. A
	// permanent "unavailable" here would wrongly reject an offer that
	// could clear once the holder releases.
	r := NewRegistry(fixedClock(0))
	if err := r.Chain("btc").RegisterAsset(Asset{ID: "x", Amount: 1}, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("btc", "x", "alice", "swap-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Chain("btc").Transfer("alice", "x", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("btc", "x", "alice", "swap-2"); !errors.Is(err, ErrAssetReserved) {
		t.Fatalf("contender during hold: err = %v, want ErrAssetReserved", err)
	}
	r.Release("btc", "x", "swap-1")
	if err := r.Reserve("btc", "x", "alice", "swap-2"); !errors.Is(err, ErrAssetUnavailable) {
		t.Fatalf("after release, spent asset: err = %v, want ErrAssetUnavailable", err)
	}
}

func TestReserveChecksOwnership(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	if err := r.Chain("btc").RegisterAsset(Asset{ID: "utxo-1", Amount: 5}, "alice"); err != nil {
		t.Fatal(err)
	}
	// Not the owner.
	if err := r.Reserve("btc", "utxo-1", "mallory", "swap-1"); !errors.Is(err, ErrAssetUnavailable) {
		t.Fatalf("wrong owner: err = %v, want ErrAssetUnavailable", err)
	}
	// Unknown asset.
	if err := r.Reserve("btc", "nope", "alice", "swap-1"); !errors.Is(err, ErrAssetUnavailable) {
		t.Fatalf("unknown asset: err = %v, want ErrAssetUnavailable", err)
	}
	// Spent asset: after a transfer the old owner cannot reserve it.
	if err := r.Chain("btc").Transfer("alice", "utxo-1", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("btc", "utxo-1", "alice", "swap-1"); !errors.Is(err, ErrAssetUnavailable) {
		t.Fatalf("spent asset: err = %v, want ErrAssetUnavailable", err)
	}
	if err := r.Reserve("btc", "utxo-1", "bob", "swap-1"); err != nil {
		t.Fatalf("new owner reserve: %v", err)
	}
}

func TestReserveConcurrentSingleWinner(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	if err := r.Chain("btc").RegisterAsset(Asset{ID: "utxo-1", Amount: 1}, "alice"); err != nil {
		t.Fatal(err)
	}
	const swaps = 64
	var wg sync.WaitGroup
	wins := make(chan string, swaps)
	for i := 0; i < swaps; i++ {
		holder := fmt.Sprintf("swap-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Reserve("btc", "utxo-1", "alice", holder); err == nil {
				wins <- holder
			}
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("want exactly one winning reservation, got %d", n)
	}
}

// TestReserveShardedAcrossChains hammers the sharded reservation table
// from many goroutines over many chains: per-chain mutual exclusion must
// hold while disjoint chains proceed independently, and every reservation
// must be released cleanly.
func TestReserveShardedAcrossChains(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	const chains = 40
	for c := 0; c < chains; c++ {
		name := fmt.Sprintf("chain-%d", c)
		if err := r.Chain(name).RegisterAsset(Asset{ID: "hot", Amount: 1}, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	winners := make([]int, chains)
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		holder := fmt.Sprintf("swap-%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < chains; c++ {
				name := fmt.Sprintf("chain-%d", c)
				if err := r.Reserve(name, "hot", "alice", holder); err == nil {
					mu.Lock()
					winners[c]++
					mu.Unlock()
					r.Release(name, "hot", holder)
				} else if !errors.Is(err, ErrAssetReserved) {
					t.Errorf("unexpected reserve error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	for c, n := range winners {
		if n == 0 {
			t.Fatalf("chain %d never reserved", c)
		}
	}
	if r.Reservations() != 0 {
		t.Fatalf("reservations leaked: %d", r.Reservations())
	}
}

func TestMultipleSubscribersCoexist(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	c := r.Chain("x")
	var mu sync.Mutex
	counts := map[string]int{}
	for _, key := range []string{"a", "b", "c"} {
		key := key
		c.Subscribe(key, func(Notification) {
			mu.Lock()
			counts[key]++
			mu.Unlock()
		})
	}
	if err := c.RegisterAsset(Asset{ID: "x", Amount: 1}, "p"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, key := range []string{"a", "b", "c"} {
		if counts[key] != 1 {
			t.Fatalf("subscriber %q saw %d notifications, want 1", key, counts[key])
		}
	}
}

func TestRegistryShardedConcurrentAccess(t *testing.T) {
	r := NewRegistry(fixedClock(0))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("chain-%d", i%50)
				ch := r.Chain(name)
				asset := AssetID(fmt.Sprintf("a-%d-%d", g, i))
				_ = ch.RegisterAsset(Asset{ID: asset, Amount: 1}, "p")
				_ = r.TotalStorageBytes()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Names()); got != 50 {
		t.Fatalf("want 50 chains, got %d", got)
	}
	if !r.VerifyAllLedgers() {
		t.Fatal("ledger hash chain broken under concurrency")
	}
}
