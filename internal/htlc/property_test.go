package htlc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestUnlockMutationProperty: any single-bit corruption of a valid unlock
// payload (secret, a signature byte, a path vertex) is rejected, across
// random corruption positions.
func TestUnlockMutationProperty(t *testing.T) {
	b := newBench(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := b.bobKey()
		switch rng.Intn(3) {
		case 0: // flip a secret bit
			key.Secret[rng.Intn(hashkey.SecretSize)] ^= 1 << uint(rng.Intn(8))
		case 1: // flip a signature bit
			key = key.Clone()
			i := rng.Intn(len(key.Sigs))
			key.Sigs[i][rng.Intn(len(key.Sigs[i]))] ^= 1 << uint(rng.Intn(8))
		default: // swap two path vertexes (breaks path or signatures)
			key = key.Clone()
			key.Path[0], key.Path[1] = key.Path[1], key.Path[0]
		}
		s, err := NewSwap(b.arc0Params())
		if err != nil {
			return false
		}
		_, err = s.Invoke(call(MethodUnlock, "bob", 110, UnlockArgs{Key: key}))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestContractStateMachineProperty: whatever sequence of random calls is
// thrown at a Swap contract, the asset can transfer at most once, and
// only via a legitimate claim or refund.
func TestContractStateMachineProperty(t *testing.T) {
	b := newBench(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSwap(b.arc0Params())
		if err != nil {
			return false
		}
		transfers := 0
		senders := []chain.PartyID{"alice", "bob", "mallory"}
		for i := 0; i < 30; i++ {
			method := []string{MethodUnlock, MethodClaim, MethodRefund}[rng.Intn(3)]
			sender := senders[rng.Intn(len(senders))]
			now := 90 + rng.Intn(120)
			var args any
			if method == MethodUnlock {
				args = UnlockArgs{Key: b.bobKey()}
			}
			res, err := s.Invoke(call(method, sender, vtime.Ticks(now), args))
			if err != nil {
				continue
			}
			if res.Transfer.Kind != 0 {
				transfers++
				// Claims go to the counterparty, refunds to the party.
				dest := res.Transfer
				if dest != chain.ByParty("bob") && dest != chain.ByParty("alice") {
					return false
				}
				break // a real chain closes the contract here
			}
		}
		return transfers <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
