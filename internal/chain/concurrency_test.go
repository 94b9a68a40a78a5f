package chain

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentChainAccess hammers one chain from many goroutines: the
// goroutine runtime shares chains between parties, so every public method
// must be safe under the race detector.
func TestConcurrentChainAccess(t *testing.T) {
	c := newTestChain()
	var observed sync.Map
	c.Subscribe("test", func(n Notification) { observed.Store(n.Note, true) })

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := PartyID(fmt.Sprintf("p%d", w))
			for i := 0; i < 50; i++ {
				asset := AssetID(fmt.Sprintf("a%d-%d", w, i))
				if err := c.RegisterAsset(Asset{ID: asset, Amount: 1}, owner); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				fc := &fakeContract{
					id:     ContractID(fmt.Sprintf("c%d-%d", w, i)),
					party:  owner,
					asset:  asset,
					target: ByParty("sink"),
				}
				if err := c.PublishContract(owner, fc); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				if err := c.Invoke("sink", fc.id, "take", nil, 1); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				c.Records()
				c.StorageBytes()
				c.Snapshot()
			}
		}()
	}
	wg.Wait()
	if !c.VerifyLedger() {
		t.Error("ledger must verify after concurrent traffic")
	}
	if got := len(c.Records()); got != workers*50*4 {
		t.Errorf("records = %d, want %d", got, workers*50*4)
	}
}

// TestConcurrentTransfers races direct transfers of one asset: exactly
// one owner must win each hop and the ledger must stay consistent.
func TestConcurrentTransfers(t *testing.T) {
	c := newTestChain()
	if err := c.RegisterAsset(Asset{ID: "hot", Amount: 1}, "p0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := PartyID(fmt.Sprintf("p%d", w))
			to := PartyID(fmt.Sprintf("p%d", w+1))
			// Only the current owner's attempt succeeds; the rest get
			// ErrNotOwner. Either way the call must be safe.
			for i := 0; i < 20; i++ {
				_ = c.Transfer(from, "hot", to)
			}
		}()
	}
	wg.Wait()
	owner, ok := c.OwnerOf("hot")
	if !ok || owner.Kind != OwnerParty {
		t.Errorf("asset lost: %v", owner)
	}
	if !c.VerifyLedger() {
		t.Error("ledger must verify")
	}
}
