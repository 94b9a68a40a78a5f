package durable

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestRecoverDetachedMatchesAttached pins that a recovery which closes
// its store (no Attach, no cut), and so resolves the store's own fold
// rather than a clone, rebuilds what an attached recovery of the same
// directory rebuilds: the same counts and the same orders. The rings are
// booked in two waves Δ apart, so the kill finds swaps on both sides of
// the resume rule: the first wave past its reveal, refunded, and the
// second still in phase one, resumed.
func TestRecoverDetachedMatchesAttached(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const rings = 30
	a := engine.New(engine.Config{Workers: 2, Seed: 3, Deterministic: true, Store: store, MaxLive: rings})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	submit := func(from, to int) {
		for r := from; r < to; r++ {
			for i := 0; i < 3; i++ {
				if _, err := a.Submit(engine.LoadOffer(r, i, 3, r)); err != nil {
					t.Error(err)
				}
			}
		}
	}
	release := a.Scheduler().Hold()
	submit(0, rings/2)
	a.Scheduler().At(vtime.Ticks(core.DefaultDelta), func() { submit(rings/2, rings) })
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
		t.Fatal(err)
	}

	cfg := engine.Config{Workers: 2, Seed: 3, Deterministic: true}
	detached, got, err := Recover(cfg, RecoverOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	attached, want, err := Recover(cfg, RecoverOptions{Dir: dir, Attach: true})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Store.Close()
	if got.Resumed == 0 || got.Refunded == 0 {
		t.Fatalf("the kill resolved %d resumed and %d refunded orders, want some of each", got.Resumed, got.Refunded)
	}
	got.WallMs, want.WallMs, want.Store = 0, 0, nil
	if *got != *want {
		t.Errorf("detached recovery %+v, attached %+v", *got, *want)
	}
	if !reflect.DeepEqual(detached.Orders(), attached.Orders()) {
		t.Error("detached and attached recoveries rebuilt different orders")
	}
}
