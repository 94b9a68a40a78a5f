package durable

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// triangleOffers is swap c: three parties of group c, each giving a
// distinct asset to both others — a complete digraph, two leaders, so
// the swap runs hashkeys and every party signs.
func triangleOffers(c int) []core.Offer {
	party := func(i int) chain.PartyID { return chain.PartyID(fmt.Sprintf("t%d-p%d", c, i)) }
	offers := make([]core.Offer, 3)
	for i := range offers {
		offers[i].Party = party(i)
		for j := 0; j < 3; j++ {
			if j != i {
				offers[i].Give = append(offers[i].Give, core.ProposedTransfer{
					To: party(j), Chain: fmt.Sprintf("chain-%d", (c+i+j)%5),
					Asset: chain.AssetID(fmt.Sprintf("tasset-%d-%d-%d", c, i, j)), Amount: 1,
				})
			}
		}
	}
	return offers
}

// TestRecoveredKeysSign: a durable engine logs no key. Its directory holds
// no identity event and none of its parties' ed25519 seeds, raw or as the
// base64 a JSON frame would carry, and a recovery onto one shard or onto
// four derives every party's key again from the seed: the same public
// keys, and the multi-leader swaps resumed after the crash sign, verify
// and deal.
func TestRecoveredKeysSign(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const swaps = 30
	cfg := engine.Config{Workers: 2, Seed: 5, Deterministic: true, MaxLive: swaps}
	cfgA := cfg
	cfgA.Store = store
	a := engine.New(cfgA)
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var parties []chain.PartyID
	release := a.Scheduler().Hold()
	for c := 0; c < swaps; c++ {
		for _, o := range triangleOffers(c) {
			parties = append(parties, o.Party)
			if _, err := a.Submit(o); err != nil {
				release()
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	// The crash lands one Δ into phase one: every swap is in flight.
	killed := make(chan struct{})
	a.Scheduler().At(vtime.Ticks(3*core.DefaultDelta), func() {
		a.Kill()
		store.Close()
		close(killed)
	})
	release()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("the kill never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Stop(ctx); err != nil {
		t.Fatalf("Stop(A): %v", err)
	}
	if a.Keyring().Signs() == 0 {
		t.Fatal("no swap signed before the crash")
	}

	files := dirFiles(t, dir)
	for _, p := range parties {
		s, err := a.Keyring().Ensure(p)
		if err != nil {
			t.Fatal(err)
		}
		seed := s.Seed()
		for name, data := range files {
			if bytes.Contains(data, seed) || bytes.Contains(data, []byte(base64.StdEncoding.EncodeToString(seed))) {
				t.Errorf("%s holds the seed of %s's key", name, p)
			}
		}
	}
	for name, data := range files {
		if _, ok := segmentIndex(name); !ok {
			continue
		}
		frames, err := parseSegment(name, data, true)
		if err != nil {
			t.Fatalf("parseSegment(%s): %v", name, err)
		}
		for _, payload := range frames {
			var ev engine.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ev.Kind == engine.EvIdentity || len(ev.Seed) > 0 {
				t.Errorf("%s logs a key: %s", name, payload)
			}
		}
	}

	for _, shards := range []int{1, 4} {
		cfgB := cfg
		cfgB.Shards = shards
		b, rec, err := Recover(cfgB, RecoverOptions{Dir: copyDir(t, dir)})
		if err != nil {
			t.Fatalf("Recover onto %d shard(s): %v", shards, err)
		}
		if rec.Resumed == 0 {
			t.Fatalf("%d shard(s): recovery resumed no order", shards)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		if err := b.Stop(ctx); err != nil {
			t.Fatalf("Stop(B): %v", err)
		}
		if b.Keyring().Signs() == 0 {
			t.Errorf("%d shard(s): the resumed swaps signed nothing", shards)
		}
		for _, o := range b.Orders() {
			if o.Status != engine.StatusSettled || (o.Class != outcome.Deal && o.Class != outcome.NoDeal) {
				t.Errorf("%d shard(s): order %d of %s ended %v/%v", shards, o.ID, o.Party, o.Status, o.Class)
			}
		}
		deals := b.Report().Outcomes[outcome.Deal.String()]
		if deals == 0 {
			t.Errorf("%d shard(s): no resumed swap dealt", shards)
		}
		for _, p := range parties {
			sa, _ := a.Keyring().Ensure(p)
			sb, err := b.Keyring().Ensure(p)
			if err != nil || !bytes.Equal(sa.Public(), sb.Public()) {
				t.Errorf("%d shard(s): %s's key differs after recovery (%v)", shards, p, err)
			}
		}
	}
}
