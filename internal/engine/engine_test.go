package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// testConfig gives each swap generous wall-clock slack per Δ: the timeout
// arithmetic assumes chain events are observed within Δ, and on a loaded
// single-core CI box scheduler jitter must stay well inside that bound.
func testConfig() Config {
	tick := 2 * time.Millisecond
	if raceEnabled {
		tick = 10 * time.Millisecond
	}
	return Config{
		Workers:       16,
		ClearInterval: time.Millisecond,
		Tick:          tick,
		Delta:         15,
		Seed:          42,
	}
}

// ringOffers builds an n-party barter ring with unique per-party assets.
func ringOffers(tag string, parties ...string) []core.Offer {
	offers := make([]core.Offer, len(parties))
	for i, p := range parties {
		next := parties[(i+1)%len(parties)]
		offers[i] = core.Offer{
			Party: chain.PartyID(tag + "-" + p),
			Give: []core.ProposedTransfer{{
				To:     chain.PartyID(tag + "-" + next),
				Chain:  fmt.Sprintf("chain-%s-%s", tag, p),
				Asset:  chain.AssetID(fmt.Sprintf("asset-%s-%s", tag, p)),
				Amount: 1,
			}},
		}
	}
	return offers
}

func drainAndStop(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func TestEngineLifecycleSingleSwap(t *testing.T) {
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var ids []OrderID
	for _, o := range ringOffers("r1", "alice", "bob", "carol") {
		id, err := e.Submit(o)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	drainAndStop(t, e)

	for _, id := range ids {
		snap, ok := e.Order(id)
		if !ok {
			t.Fatalf("order %d lost", id)
		}
		if snap.Status != StatusSettled || snap.Class != outcome.Deal {
			t.Fatalf("order %d: status %s class %s, want settled Deal", id, snap.Status, snap.Class)
		}
		if snap.Latency <= 0 {
			t.Fatalf("order %d: non-positive latency", id)
		}
	}
	rep := e.Report()
	if rep.OffersSubmitted != 3 || rep.OffersCleared != 3 || rep.SwapsFinished != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	if e.Registry().Reservations() != 0 {
		t.Fatal("reservations leaked")
	}
	// Assets actually moved: alice's asset now belongs to bob.
	owner, _ := e.Registry().Chain("chain-r1-alice").OwnerOf("asset-r1-alice")
	if owner != chain.ByParty("r1-bob") {
		t.Fatalf("asset-r1-alice owned by %s, want r1-bob", owner)
	}
}

// TestEngineKeyringAndCacheReuse pins the hot-path amortizations: a party
// submitting repeatedly keeps one identity across all its swaps (derived on
// its first hashkey swap only), and the engine-wide verification cache answers
// extended-hashkey verifications without re-walking chains — re-presented
// extensions are seeded by their presenter, so contracts see pure hits
// (zero signature checks), not even the one-signature fast path. The
// hashkey protocol is forced: a three-party ring is a single-leader
// component and by default clears on HTLCs that never touch the cache.
// The engine runs on the free clock and both rounds are booked under one
// hold, so the run is a function of its seed, not of the host's timing.
func TestEngineKeyringAndCacheReuse(t *testing.T) {
	cfg := testConfig()
	cfg.Kind = core.KindGeneral
	cfg.Deterministic = true
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	parties := []string{"alice", "bob", "carol"}
	// The same three parties trade twice over distinct assets: the book
	// clears one offer per party per round, and the second swap must reuse
	// the identities minted for the first.
	release := e.Scheduler().Hold()
	for round := 0; round < 2; round++ {
		for i, p := range parties {
			next := parties[(i+1)%len(parties)]
			_, err := e.Submit(core.Offer{
				Party: chain.PartyID(p),
				Give: []core.ProposedTransfer{{
					To:     chain.PartyID(next),
					Chain:  fmt.Sprintf("chain-%s", p),
					Asset:  chain.AssetID(fmt.Sprintf("asset-%s-%d", p, round)),
					Amount: 1,
				}},
			})
			if err != nil {
				release()
				t.Fatal(err)
			}
		}
	}
	release()
	drainAndStop(t, e)

	if got := e.Keyring().Len(); got != len(parties) {
		t.Errorf("keyring holds %d identities after 2 swaps of %d parties, want %d",
			got, len(parties), len(parties))
	}
	st := e.VerifyCacheStats()
	if st.Hits == 0 {
		t.Errorf("no cached verifications under load: %+v", st)
	}
	if st.Hits <= st.Misses {
		t.Errorf("cache mostly missing under repeat traffic: %+v", st)
	}
	rep := e.Report()
	if rep.SwapsFinished != 2 || rep.SwapsFailed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineManyConcurrentSwaps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-swap load test")
	}
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const rings = 40
	var ids []OrderID
	for i := 0; i < rings; i++ {
		for _, o := range ringOffers(fmt.Sprintf("g%d", i), "a", "b", "c") {
			id, err := e.Submit(o)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	drainAndStop(t, e)

	for _, id := range ids {
		snap, _ := e.Order(id)
		if snap.Status != StatusSettled || snap.Class != outcome.Deal {
			t.Fatalf("order %d: %s/%s", id, snap.Status, snap.Class)
		}
	}
	rep := e.Report()
	if rep.SwapsFinished != rings {
		t.Fatalf("want %d swaps, got %d", rings, rep.SwapsFinished)
	}
	if rep.PeakConcurrent < 2 {
		t.Fatalf("no concurrency observed: peak %d", rep.PeakConcurrent)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDeepBookFewParties books many rings over a handful of
// identities before the first clearing round, so every round's scan meets
// all of its parties long before the end of the book. Each party's orders
// must still clear strictly in booking order, and all of them must settle.
// Live runs are bounded by MaxLive alone: two Workers do not cap them.
func TestEngineDeepBookFewParties(t *testing.T) {
	cfg := testConfig()
	cfg.Deterministic = true
	cfg.Workers, cfg.MaxLive = 2, 64
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const rings, pool = 60, 4
	release := e.Scheduler().Hold()
	for r := 0; r < rings; r++ {
		for i := 0; i < 3; i++ {
			if _, err := e.Submit(LoadOffer(r, i, 3, r%pool)); err != nil {
				release()
				t.Fatal(err)
			}
		}
	}
	release()
	drainAndStop(t, e)
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	lastSwap := make(map[string]string) // swap tags are zero-padded minimum order IDs
	for _, o := range e.Orders() {
		if o.Status != StatusSettled || o.Class != outcome.Deal {
			t.Fatalf("order %d (%s): %s/%s", o.ID, o.Party, o.Status, o.Class)
		}
		if o.Swap <= lastSwap[o.Party] {
			t.Fatalf("order %d of %s cleared into %s, not after its earlier order's %s",
				o.ID, o.Party, o.Swap, lastSwap[o.Party])
		}
		lastSwap[o.Party] = o.Swap
	}
	rep := e.Report()
	if rep.SwapsFinished != rings {
		t.Fatalf("finished %d swaps, want %d", rep.SwapsFinished, rings)
	}
	if rep.PeakConcurrent <= cfg.Workers {
		t.Fatalf("peak %d live runs with %d Workers and MaxLive %d, want more than Workers",
			rep.PeakConcurrent, cfg.Workers, cfg.MaxLive)
	}
}

func TestEngineDoubleSpendPrevented(t *testing.T) {
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Alice offers the SAME asset into two different pairings. Only one
	// may ever execute; once it settles, the asset belongs to bob and the
	// duplicate must be rejected as spent — never double-committed.
	first := core.Offer{Party: "alice", Give: []core.ProposedTransfer{
		{To: "bob", Chain: "btc", Asset: "alice-utxo", Amount: 7},
	}}
	second := core.Offer{Party: "alice", Give: []core.ProposedTransfer{
		{To: "carol", Chain: "btc", Asset: "alice-utxo", Amount: 7},
	}}
	bob := core.Offer{Party: "bob", Give: []core.ProposedTransfer{
		{To: "alice", Chain: "eth", Asset: "bob-coin", Amount: 3},
	}}
	carol := core.Offer{Party: "carol", Give: []core.ProposedTransfer{
		{To: "alice", Chain: "sol", Asset: "carol-coin", Amount: 2},
	}}
	id1, err := e.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	idB, _ := e.Submit(bob)
	idC, _ := e.Submit(carol)
	drainAndStop(t, e)

	s1, _ := e.Order(id1)
	s2, _ := e.Order(id2)
	sB, _ := e.Order(idB)
	sC, _ := e.Order(idC)
	if s1.Status != StatusSettled || s1.Class != outcome.Deal {
		t.Fatalf("first spend: %s/%s", s1.Status, s1.Class)
	}
	if sB.Status != StatusSettled {
		t.Fatalf("bob: %s", sB.Status)
	}
	if s2.Status != StatusRejected {
		t.Fatalf("duplicate spend not rejected: %s", s2.Status)
	}
	// Carol's counterparty evaporated, so her order is rejected unmatched.
	if sC.Status != StatusRejected {
		t.Fatalf("carol: %s", sC.Status)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	owner, _ := e.Registry().Chain("btc").OwnerOf("alice-utxo")
	if owner != chain.ByParty("bob") {
		t.Fatalf("alice-utxo owned by %s, want bob exactly once", owner)
	}
}

func TestEngineRejectsBadOffers(t *testing.T) {
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(core.Offer{Party: "a"}); !errors.Is(err, ErrBadOffer) {
		t.Fatalf("empty offer: %v", err)
	}
	if _, err := e.Submit(core.Offer{Party: "a", Give: []core.ProposedTransfer{
		{To: "a", Chain: "c", Asset: "s", Amount: 1},
	}}); !errors.Is(err, ErrBadOffer) {
		t.Fatalf("self transfer: %v", err)
	}
	if _, err := e.Submit(core.Offer{Party: "a", Give: []core.ProposedTransfer{
		{To: "b", Chain: "c", Asset: "s", Amount: 5},
	}}); err != nil {
		t.Fatalf("valid offer refused: %v", err)
	}
	// Same asset, different amount: the ledger says 5. Only the intake
	// event reads the ledger, so the post is accepted and the order is
	// rejected there, with the reason.
	mismatch, err := e.Submit(core.Offer{Party: "a", Give: []core.ProposedTransfer{
		{To: "b", Chain: "c", Asset: "s", Amount: 6},
	}})
	if err != nil {
		t.Fatalf("amount mismatch refused at the post: %v", err)
	}
	// One asset backing two transfers in one offer.
	if _, err := e.Submit(core.Offer{Party: "d", Give: []core.ProposedTransfer{
		{To: "b", Chain: "c2", Asset: "dup", Amount: 1},
		{To: "e", Chain: "c2", Asset: "dup", Amount: 1},
	}}); !errors.Is(err, ErrBadOffer) {
		t.Fatalf("duplicate asset in offer: %v", err)
	}
	drainAndStop(t, e)
	if snap, _ := e.Order(mismatch); snap.Status != StatusRejected ||
		!strings.Contains(snap.Reason, "has amount 5, offer says 6") {
		t.Fatalf("amount mismatch: %s %q, want rejected naming both amounts", snap.Status, snap.Reason)
	}
	if _, err := e.Submit(core.Offer{Party: "x", Give: []core.ProposedTransfer{
		{To: "y", Chain: "c", Asset: "z", Amount: 1},
	}}); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("submit after stop: %v", err)
	}
}

func TestEngineUnmatchedOfferRejectedAtDrain(t *testing.T) {
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := e.Submit(core.Offer{Party: "lonely", Give: []core.ProposedTransfer{
		{To: "ghost", Chain: "c", Asset: "s", Amount: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	drainAndStop(t, e)
	snap, _ := e.Order(id)
	if snap.Status != StatusRejected {
		t.Fatalf("unmatched offer: %s, want rejected", snap.Status)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineGracefulShutdownUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Hammer intake from several goroutines while the engine drains.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitted []OrderID
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, o := range ringOffers(fmt.Sprintf("w%d-%d", g, i), "a", "b") {
					id, err := e.Submit(o)
					if err != nil {
						return // intake closed mid-drain: expected
					}
					mu.Lock()
					submitted = append(submitted, id)
					mu.Unlock()
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop under load: %v", err)
	}
	wg.Wait()
	// Every accepted order must be terminal: settled or rejected, never
	// stuck pending/executing.
	for _, id := range submitted {
		snap, ok := e.Order(id)
		if !ok {
			t.Fatalf("order %d lost", id)
		}
		if snap.Status != StatusSettled && snap.Status != StatusRejected {
			t.Fatalf("order %d not terminal: %s", id, snap.Status)
		}
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	if e.Registry().Reservations() != 0 {
		t.Fatal("reservations leaked across shutdown")
	}
}

func TestEngineAdversarialTrafficRefundsSafely(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial load test")
	}
	cfg := testConfig()
	cfg.AdversaryRate = 1.0 // every swap gets a silent leader
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var ids []OrderID
	for i := 0; i < 4; i++ {
		for _, o := range ringOffers(fmt.Sprintf("adv%d", i), "a", "b", "c") {
			id, err := e.Submit(o)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	drainAndStop(t, e)
	for _, id := range ids {
		snap, _ := e.Order(id)
		if snap.Status != StatusSettled {
			t.Fatalf("order %d: %s", id, snap.Status)
		}
		// The silent leader griefs the swap: no conforming party may end
		// Underwater — they refund to NoDeal (the leader itself may
		// technically classify differently, but with everyone refunding
		// the uniform outcome is NoDeal).
		if snap.Class == outcome.Underwater {
			t.Fatalf("order %d: conforming party Underwater", id)
		}
	}
	rep := e.Report()
	if rep.Outcomes["NoDeal"] == 0 {
		t.Fatalf("expected aborted swaps, outcomes: %v", rep.Outcomes)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineVirtualTimeMode runs a full load under the virtual scheduler:
// identical outcomes, conservation intact, and the whole load clears in
// CPU time even with a Δ that would mean minutes of wall-clock waiting.
func TestEngineVirtualTimeMode(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	cfg.Delta = 5000 // ≥ 75s per swap at the real-mode tick; irrelevant here
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var ids []OrderID
	for i := 0; i < 10; i++ {
		for _, o := range ringOffers(fmt.Sprintf("v%d", i), "a", "b", "c") {
			id, err := e.Submit(o)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	start := time.Now()
	drainAndStop(t, e)
	elapsed := time.Since(start)
	// The speed claim, asserted in virtual time rather than against an
	// absolute wall-clock bound (which flaked on slow CI): the virtual
	// clock must have covered more protocol time than the wall time the
	// drain took at the configured tick — i.e. the swaps did NOT wait out
	// their Δ-scaled deadlines in wall time. With Δ=5000 the protocol
	// spans ≥ 2Δ = 10000 ticks ≥ 20s of tick-equivalent time per wave,
	// so a real-scheduler run could never satisfy this.
	vticks := e.Scheduler().Now()
	if equivalent := time.Duration(vticks) * cfg.Tick; equivalent <= elapsed {
		t.Fatalf("virtual clock covered %v (%d ticks) in %v of wall time — no speedup over real time",
			equivalent, vticks, elapsed)
	}
	for _, id := range ids {
		snap, _ := e.Order(id)
		if snap.Status != StatusSettled || snap.Class != outcome.Deal {
			t.Fatalf("order %d: %s/%s", id, snap.Status, snap.Class)
		}
	}
	rep := e.Report()
	if rep.SwapsFinished != 10 || rep.SwapsFailed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDrainRaceVirtualTime hammers intake from several goroutines
// while the engine drains under virtual time: every accepted order must
// reach a terminal state, nothing may leak, and the virtual clock's holds
// must all settle (Stop would hang otherwise).
func TestEngineDrainRaceVirtualTime(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitted []OrderID
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, o := range ringOffers(fmt.Sprintf("dv%d-%d", g, i), "a", "b", "c") {
					id, err := e.Submit(o)
					if err != nil {
						return // intake closed mid-drain: expected
					}
					mu.Lock()
					submitted = append(submitted, id)
					mu.Unlock()
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let some swaps get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop under virtual-time load: %v", err)
	}
	wg.Wait()
	for _, id := range submitted {
		snap, ok := e.Order(id)
		if !ok {
			t.Fatalf("order %d lost", id)
		}
		if snap.Status != StatusSettled && snap.Status != StatusRejected {
			t.Fatalf("order %d not terminal: %s", id, snap.Status)
		}
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	if e.Registry().Reservations() != 0 {
		t.Fatal("reservations leaked across virtual-time shutdown")
	}
}

// TestReportChainDeltas: under a commitment model, Report shows each
// modeled chain's effective Δ — the configured Δ plus the confirmation
// depth — and every cleared swap, on either shard or the coordinator, is
// built on the configured Δ with that ladder per chain.
func TestReportChainDeltas(t *testing.T) {
	var mu sync.Mutex
	var specs []*core.Spec
	cfg := Config{
		Delta: 15, Deterministic: true, Seed: 42,
		Commitment: CommitmentConfig{ConfirmDepth: 2}, Shards: 2,
		Behaviors: func(setup *core.Setup, _ int64) SwapBehaviors {
			mu.Lock()
			specs = append(specs, setup.Spec)
			mu.Unlock()
			return SwapBehaviors{}
		},
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const rings = 4
	var offers []core.Offer
	for r := 0; r < rings; r++ {
		offers = append(offers, ringOffers(fmt.Sprintf("cd%d", r), "a", "b", "c")...)
	}
	bookAndDrain(t, e, offers)

	rep := e.Report()
	modeled := e.Registry().ModeledChains()
	if len(modeled) != 3*rings || len(rep.ChainDeltas) != len(modeled) {
		t.Fatalf("%d modeled chains, %d reported, want %d", len(modeled), len(rep.ChainDeltas), 3*rings)
	}
	for _, name := range modeled {
		want := e.Registry().Chain(name).Timing().EffectiveDelta(cfg.Delta)
		if want != cfg.Delta+2 || rep.ChainDeltas[name] != int(want) {
			t.Errorf("chain %s: reported Δ %d, effective %d, want %d", name, rep.ChainDeltas[name], want, cfg.Delta+2)
		}
	}
	if len(specs) != rings {
		t.Fatalf("%d swaps cleared, want %d", len(specs), rings)
	}
	for _, spec := range specs {
		if spec.Delta != cfg.Delta {
			t.Errorf("swap %s cleared on Δ %d, want %d", spec.Tag, spec.Delta, cfg.Delta)
		}
		for _, aa := range spec.Assets {
			if got := spec.DeltaFor(aa.Chain); int(got) != rep.ChainDeltas[aa.Chain] {
				t.Errorf("swap %s: chain %s Δ %d, report says %d", spec.Tag, aa.Chain, got, rep.ChainDeltas[aa.Chain])
			}
		}
	}
	if rep.SwapsFinished != rings || rep.Outcomes["Deal"] != 3*rings {
		t.Fatalf("report: %d finished, outcomes %v", rep.SwapsFinished, rep.Outcomes)
	}
}

// TestEngineAdversarialConcurrentSubmit exercises the clearing path's
// adversary selection (the goroutine-confined rng draw) while many
// goroutines hammer Submit: under -race this is the regression test for
// the rng's confinement contract, and under any build every accepted
// order must still reach a terminal state with conservation intact.
func TestEngineAdversarialConcurrentSubmit(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	cfg.AdversaryRate = 0.5
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitted []OrderID
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, o := range ringOffers(fmt.Sprintf("ar%d-%d", g, i), "a", "b", "c") {
					id, err := e.Submit(o)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					submitted = append(submitted, id)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	drainAndStop(t, e)
	sabotaged := 0
	for _, id := range submitted {
		snap, ok := e.Order(id)
		if !ok {
			t.Fatalf("order %d lost", id)
		}
		if snap.Status != StatusSettled {
			t.Fatalf("order %d not settled: %s", id, snap.Status)
		}
		if snap.Class == outcome.Underwater {
			t.Fatalf("order %d: conforming party Underwater", id)
		}
		if snap.Class == outcome.NoDeal {
			sabotaged++
		}
	}
	// With AdversaryRate 0.5 over 40 swaps, both branches of the rng draw
	// must have fired: some swaps aborted, some dealt.
	if sabotaged == 0 || sabotaged == len(submitted) {
		t.Fatalf("adversary rate 0.5 produced %d/%d NoDeal orders — rng draw not exercised both ways",
			sabotaged, len(submitted))
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineVirtualStopWithoutStart pins the lifecycle contract: a
// virtual engine owns its scheduler's dispatcher goroutine, and Stop
// releases it even when Start was never called.
func TestEngineVirtualStopWithoutStart(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	e := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop without Start: %v", err)
	}
}

// TestEngineDeterministicReplay pins the engine-level replay contract
// underneath the scenario harness: the same seeded offer schedule,
// driven through the scheduler of a Deterministic engine, yields
// identical tick traces (submit and settle ticks per order) on every
// run. The clearing loop rides the shared scheduler now — on a
// wall-clock ticker this diverged run to run.
func TestEngineDeterministicReplay(t *testing.T) {
	trace := func() []OrderSnapshot {
		cfg := testConfig()
		cfg.Deterministic = true
		e := New(cfg)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		// Install the arrival schedule under a hold, like loadgen does:
		// ring i's three offers land at ticks 4i+1..4i+3.
		sc := e.Scheduler()
		release := sc.Hold()
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			offers := ringOffers(fmt.Sprintf("det%d", i), "a", "b", "c")
			for j, o := range offers {
				o := o
				wg.Add(1)
				sc.At(vtime.Ticks(4*i+j+1), func() {
					defer wg.Done()
					if _, err := e.Submit(o); err != nil {
						t.Errorf("submit: %v", err)
					}
				})
			}
		}
		release()
		wg.Wait()
		drainAndStop(t, e)
		if err := e.VerifyConservation(); err != nil {
			t.Fatal(err)
		}
		return e.Orders()
	}
	a, b := trace(), trace()
	if len(a) != 18 || len(b) != 18 {
		t.Fatalf("traces hold %d/%d orders, want 18", len(a), len(b))
	}
	for i := range a {
		if a[i].SubmittedTick != b[i].SubmittedTick || a[i].SettledTick != b[i].SettledTick ||
			a[i].Status != b[i].Status || a[i].Class != b[i].Class || a[i].Swap != b[i].Swap {
			t.Fatalf("replay diverged at order %d:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
		if a[i].Status == StatusSettled && a[i].SettledTick <= a[i].SubmittedTick {
			t.Fatalf("order %d settled tick %d not after submit tick %d",
				i, a[i].SettledTick, a[i].SubmittedTick)
		}
	}
}

// TestWALOrderReplays: two same-seed Deterministic runs append the same WAL
// events in the same order, not only the same set. A swap releases its
// reservations and settles its orders inside its own horizon delivery, so
// those events land at their place in the schedule, between the same
// reservations of other swaps on every run.
func TestWALOrderReplays(t *testing.T) {
	run := func() []string {
		rec := new(recorder)
		e := New(Config{
			Deterministic: true,
			Workers:       8,
			Tick:          time.Millisecond,
			Delta:         20,
			ClearInterval: time.Millisecond,
			Seed:          1,
			Store:         rec,
		})
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		const rings, pool = 300, 32
		var offers []core.Offer
		for r := 0; r < rings; r++ {
			for i := 0; i < 3; i++ {
				offers = append(offers, LoadOffer(r, i, 3, r%pool))
			}
		}
		bookAndDrain(t, e, offers)
		if rep := e.Report(); rep.SwapsFinished != rings {
			t.Fatalf("finished %d swaps, want %d", rep.SwapsFinished, rings)
		}
		out := make([]string, len(rec.evs))
		for i, ev := range rec.evs {
			out[i] = fmt.Sprintf("%s@%d order=%d swap=%s %s/%s", ev.Kind, ev.Tick, ev.Order, ev.Swap, ev.Chain, ev.Asset)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs appended %d and %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("WAL order diverged at event %d of %d:\n  %s\nvs\n  %s", i, len(a), a[i], b[i])
		}
	}
}

// TestEngineBehaviorFactory exercises the deviation-injection hook: a
// factory that marks one vertex per swap as a silent leader must tag the
// victim order as deviant, count the swap's orders as sabotaged, and
// still leave every conforming party acceptable.
func TestEngineBehaviorFactory(t *testing.T) {
	cfg := testConfig()
	cfg.Parallel = true
	cfg.Behaviors = func(setup *core.Setup, seed int64) SwapBehaviors {
		spec := setup.Spec
		lv := spec.Leaders[0]
		idx, _ := spec.LeaderIndex(lv)
		return SwapBehaviors{
			Behaviors: map[digraph.Vertex]core.Behavior{lv: adversary.SilentLeader(idx)},
			Deviants:  map[digraph.Vertex]string{lv: "silent-leader"},
		}
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, o := range ringOffers(fmt.Sprintf("bf%d", i), "a", "b", "c") {
			if _, err := e.Submit(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	drainAndStop(t, e)
	deviants := 0
	for _, snap := range e.Orders() {
		if snap.Status != StatusSettled {
			t.Fatalf("order %d: %s", snap.ID, snap.Status)
		}
		if snap.Deviant != "" {
			deviants++
			continue
		}
		if !snap.Class.Acceptable() {
			t.Fatalf("conforming order %d ended %s", snap.ID, snap.Class)
		}
	}
	if deviants != 3 {
		t.Fatalf("%d deviant orders, want 3 (one per swap)", deviants)
	}
	rep := e.Report()
	if rep.OrdersSabotaged != 9 {
		t.Fatalf("sabotaged %d orders, want all 9", rep.OrdersSabotaged)
	}
	if rep.Deviations["silent-leader"] != 3 {
		t.Fatalf("deviations: %v", rep.Deviations)
	}
	if rep.OrdersRefunded == 0 {
		t.Fatalf("silent leaders aborted nothing: %v", rep.Outcomes)
	}
	if err := e.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDoubleStartFails(t *testing.T) {
	e := New(testConfig())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
	drainAndStop(t, e)
	// Stop is idempotent.
	if err := e.Stop(context.Background()); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
}
