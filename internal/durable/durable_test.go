package durable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestKillRecoverInFlight is the headline crash-recovery test: an
// engine with a durable store takes a ring-swap load, is killed with at
// least 50 swaps in flight (the store closed at the same instant —
// appends after the "crash" are lost, exactly like a dead process's),
// and a second engine is recovered from the directory.
// Every order the first engine ever accepted must terminate — settled
// through a resumed swap, refunded at the recovery tick, or rejected —
// with no conforming party underwater and the recovered ledgers intact.
func TestKillRecoverInFlight(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{Dir: dir, SnapshotEvery: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// A free clock with a tiny worker pool. The whole book goes in under a
	// hold, so the first clearing round dispatches all 120 swaps, and the
	// crash is an event of the same schedule, three Δ in — phase one under
	// way everywhere, no horizon near: the run up to the kill is a function
	// of the seed, not of how far two workers got.
	const rings, ringSize = 120, 3
	cfgA := engine.Config{
		Workers:       2,
		Seed:          7,
		AdversaryRate: 0.15,
		Deterministic: true,
		Store:         store,
		// The live-run gate would cap in-flight at 16×Workers=32; this
		// test's whole point is a crash with ≥50 swaps mid-air.
		MaxLive: rings,
	}
	a := engine.New(cfgA)
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	release := a.Scheduler().Hold()
	for r := 0; r < rings; r++ {
		for i := 0; i < ringSize; i++ {
			if _, err := a.Submit(engine.LoadOffer(r, i, ringSize, r)); err != nil {
				t.Fatalf("Submit ring %d offer %d: %v", r, i, err)
			}
		}
	}
	// Crash: kill the engine and close the store in the same breath, so
	// whatever the dying swaps append afterwards never reaches disk.
	inflight := 0
	killed := make(chan struct{})
	a.Scheduler().At(vtime.Ticks(3*core.DefaultDelta), func() {
		inflight = a.InFlight()
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
	if inflight < 50 {
		t.Fatalf("the kill found %d swaps in flight, want >= 50", inflight)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Stop(ctx); err != nil {
		t.Fatalf("Stop(A): %v", err)
	}

	cfgB := engine.Config{Workers: 8, Seed: 7, Deterministic: true}
	b, rec, err := Recover(cfgB, RecoverOptions{Dir: dir, Attach: true, SnapshotEvery: 256})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Store == nil {
		t.Fatalf("attached recovery returned no store")
	}
	defer rec.Store.Close()
	if rec.Resumed+rec.Refunded < 50 {
		t.Errorf("resolved %d+%d in-flight orders at recovery, want >= 50 (kill saw %d in-flight swaps)",
			rec.Resumed, rec.Refunded, inflight)
	}
	if err := b.Start(); err != nil {
		t.Fatalf("Start(B): %v", err)
	}
	if err := b.Stop(ctx); err != nil {
		t.Fatalf("Stop(B): %v", err)
	}

	total, settled, rejected := 0, 0, 0
	for _, o := range b.Orders() {
		total++
		switch o.Status {
		case engine.StatusSettled:
			settled++
			if o.Deviant == "" && o.Class == outcome.Underwater {
				t.Errorf("conforming order %d (party %s, swap %s) underwater after recovery", o.ID, o.Party, o.Swap)
			}
		case engine.StatusRejected:
			rejected++
		default:
			t.Errorf("order %d not terminal after recovered run: %v", o.ID, o.Status)
		}
	}
	if total != rings*ringSize {
		t.Errorf("recovered engine carries %d orders, want %d", total, rings*ringSize)
	}
	if settled == 0 {
		t.Errorf("no orders settled across crash and recovery (rejected=%d)", rejected)
	}
	if err := b.VerifyLedgerIntegrity(); err != nil {
		t.Errorf("recovered ledger integrity: %v", err)
	}
	snap := b.Report()
	if snap.Recovery == nil {
		t.Errorf("recovered engine's report carries no recovery stats")
	} else if snap.Recovery.Replayed != rec.Events {
		t.Errorf("report says %d events replayed, Recover said %d", snap.Recovery.Replayed, rec.Events)
	}

	// Idempotence: the attached recovery snapshotted the RESOLVED state,
	// and engine B then ran to quiescence, so recovering the directory
	// once more must find nothing left in flight to resume or refund —
	// crashes do not compound.
	c, rec2, err := Recover(engine.Config{Workers: 2, Seed: 7, Deterministic: true}, RecoverOptions{Dir: dir})
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer c.Stop(context.Background())
	if rec2.Resumed != 0 || rec2.Refunded != 0 {
		t.Errorf("second recovery re-resolved %d resumed / %d refunded orders, want 0/0", rec2.Resumed, rec2.Refunded)
	}
}

// TestSecondCrashJudgesReusedTags: a swap is named by its minimum order ID,
// so a group resumed after one crash re-clears under the tag it had before
// it, and the log holds that tag's progress from both lives. Three lives
// over one attached store: the first is killed with every ring in flight,
// the second re-clears the resumed rings — under their first-life tags —
// and is killed before any of them publishes, and the third's fold must
// judge each order by the swap it was last cleared into. Those swaps have
// their whole timelock budget ahead of them, so every one resumes (judged
// by the first life's deadlines, most would refund), and the third life
// finishes the run with ledgers intact.
func TestSecondCrashJudgesReusedTags(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const rings, ringSize = 40, 3
	cfg := engine.Config{Workers: 2, Seed: 7, Deterministic: true, MaxLive: rings}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// crash starts e with the book fill under its hold, kills it at tick at
	// with its store closing in the same breath, stops it, and returns the
	// swap every order was executing in at the kill.
	crash := func(e *engine.Engine, st *Store, at vtime.Ticks, fill func(*engine.Engine)) map[engine.OrderID]string {
		t.Helper()
		if err := e.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		executing := make(map[engine.OrderID]string)
		killed := make(chan struct{})
		release := e.Scheduler().Hold()
		fill(e)
		e.Scheduler().At(at, func() {
			for _, o := range e.Orders() {
				if o.Status == engine.StatusExecuting {
					executing[o.ID] = o.Swap
				}
			}
			e.Kill()
			st.Close()
			close(killed)
		})
		release()
		select {
		case <-killed:
		case <-time.After(10 * time.Second):
			t.Fatalf("the kill at tick %d never fired", at)
		}
		if err := e.Stop(ctx); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		return executing
	}

	// Life 1: the whole book clears at the first round; three Δ in, every
	// ring is in phase one.
	cfgA := cfg
	cfgA.Store = store
	life1 := crash(engine.New(cfgA), store, vtime.Ticks(3*core.DefaultDelta), func(e *engine.Engine) {
		for r := 0; r < rings; r++ {
			for i := 0; i < ringSize; i++ {
				if _, err := e.Submit(engine.LoadOffer(r, i, ringSize, r)); err != nil {
					t.Fatalf("Submit ring %d offer %d: %v", r, i, err)
				}
			}
		}
	})

	// Life 2: attached, so the resolved state is the store's new snapshot.
	// The resumed rings re-clear at its first round and are killed just
	// before the first of them can publish: a run starts 2Δ after its
	// round, plus a sub-Δ stagger.
	b, rec2, err := Recover(cfg, RecoverOptions{Dir: dir, Attach: true})
	if err != nil {
		t.Fatalf("Recover (life 2): %v", err)
	}
	if rec2.Resumed == 0 {
		t.Fatalf("the first crash resumed nothing: %+v", rec2)
	}
	life2 := crash(b, rec2.Store, rec2.Tick.Add(2*core.DefaultDelta-1), func(*engine.Engine) {})
	reused := 0
	for id, tag := range life2 {
		if life1[id] == tag {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("no swap of life 2 re-cleared under its life-1 tag (life 1 %v, life 2 %v)", life1, life2)
	}

	// Life 3: every order life 2 was executing is judged by its life-2 swap.
	c, rec3, err := Recover(cfg, RecoverOptions{Dir: dir})
	if err != nil {
		t.Fatalf("Recover (life 3): %v", err)
	}
	if rec3.Resumed != len(life2) || rec3.Refunded != 0 {
		t.Fatalf("life 3 resumed %d and refunded %d orders; life 2 was executing %d, all with their budget ahead",
			rec3.Resumed, rec3.Refunded, len(life2))
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start (life 3): %v", err)
	}
	if err := c.Stop(ctx); err != nil {
		t.Fatalf("Stop (life 3): %v", err)
	}
	for _, o := range c.Orders() {
		switch {
		case o.Status != engine.StatusSettled && o.Status != engine.StatusRejected:
			t.Errorf("order %d not terminal after the third life: %v", o.ID, o.Status)
		case o.Deviant == "" && o.Class == outcome.Underwater:
			t.Errorf("conforming order %d (swap %s) underwater after two crashes", o.ID, o.Swap)
		}
	}
	if err := c.VerifyLedgerIntegrity(); err != nil {
		t.Errorf("ledger integrity after two crashes: %v", err)
	}
}

// seedStore writes n synthetic booked+settled order events through a
// store and closes it, returning the order count.
func seedStore(t *testing.T, dir string, events int, opts Options) {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeEvents(s, events)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// writeEvents appends `events` synthetic events (half bookings, half
// settles, so the fold ends with every order terminal).
func writeEvents(s *Store, events int) {
	orders := events / 2
	for i := 1; i <= orders; i++ {
		id := engine.OrderID(i)
		s.Append(engine.Event{Kind: engine.EvBooked, Tick: vtime.Ticks(i), Order: id})
		s.Append(engine.Event{
			Kind: engine.EvSettled, Tick: vtime.Ticks(i + 1),
			Order: id, Swap: "swap-000001", Class: int(outcome.Deal),
		})
	}
}

// tearTail appends a torn frame — a plausible header promising more
// bytes than exist — to dir's last segment and returns that segment's
// path and its size before the garbage.
func tearTail(t *testing.T, dir string) (string, int64) {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segmentNames: %v (%d segments)", err, len(names))
	}
	last := filepath.Join(dir, names[len(names)-1])
	whole, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat last segment: %v", err)
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open last segment: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	return last, whole.Size()
}

// TestTornTailDropped: garbage after the last full frame of the final
// segment — the signature of an append cut short by a crash — is
// silently dropped; everything before it survives.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 20, Options{})

	tearTail(t, dir)

	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer s.Close()
	st, err := s.ResolvedState(0)
	if err != nil {
		t.Fatalf("ResolvedState: %v", err)
	}
	if len(st.Orders) != 10 {
		t.Errorf("torn tail: folded %d orders, want 10", len(st.Orders))
	}
}

// TestMidStreamCorruptionFatal: a checksum mismatch anywhere except the
// final frame cannot be a torn tail and must fail loudly, not be
// skipped.
func TestMidStreamCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 20, Options{})

	names, _ := segmentNames(dir)
	// Find a segment that actually has frames (Open creates a trailing
	// empty one per session).
	var target string
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.Size() > int64(len(walMagic)) {
			target = filepath.Join(dir, name)
			break
		}
	}
	if target == "" {
		t.Fatalf("no non-empty segment found")
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Flip one payload byte of the FIRST frame: bytes follow it, so this
	// can never be mistaken for a torn tail.
	data[len(walMagic)+frameHeader] ^= 0x40
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatalf("write corrupted segment: %v", err)
	}

	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-stream corruption: got %v, want ErrCorrupt", err)
	}
}

// TestTornFrameInNonFinalSegmentFatal: a torn frame is only legal at the
// very end of the log; one in an earlier segment means the log was
// damaged after being written, and recovery must refuse.
func TestTornFrameInNonFinalSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation, so the log spans >1 segment.
	seedStore(t, dir, 40, Options{SegmentBytes: 256})

	names, _ := segmentNames(dir)
	if len(names) < 2 {
		t.Fatalf("expected multiple segments, got %v", names)
	}
	first := filepath.Join(dir, names[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Truncate the first segment mid-frame.
	if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("truncate segment: %v", err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on torn non-final segment: got %v, want ErrCorrupt", err)
	}
}

// TestSnapshotVersionSkew: a snapshot written by a different schema
// version is an error, never a best-effort fold.
func TestSnapshotVersionSkew(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeEvents(s, 10)
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	// Rewrite the snapshot claiming a future version; the payload is
	// re-framed so only the version check can object.
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	frames, err := parseFrames(raw)
	if err != nil || len(frames) != 1 {
		t.Fatalf("parse snapshot: %v", err)
	}
	payload := []byte(`{"version":99,"state":` + `{"max_tick":0,"events":0}}`)
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), appendFrame(nil, payload), 0o644); err != nil {
		t.Fatalf("write skewed snapshot: %v", err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatalf("Open accepted snapshot version 99")
	}
}

// TestSnapshotTruncatesLog: an automatic snapshot folds the log into the
// snapshot file and deletes the sealed segments, and a reopened store
// folds to the identical state.
func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: 8, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeEvents(s, 64)
	before, err := s.ResolvedState(0)
	if err != nil {
		t.Fatalf("ResolvedState: %v", err)
	}
	s.Close()

	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	after, err := r.ResolvedState(0)
	if err != nil {
		t.Fatalf("ResolvedState after reopen: %v", err)
	}
	if len(after.Orders) != len(before.Orders) || after.MaxTick != before.MaxTick {
		t.Errorf("reopened fold diverged: %d orders max tick %d, want %d orders max tick %d",
			len(after.Orders), after.MaxTick, len(before.Orders), before.MaxTick)
	}
	for id, o := range before.Orders {
		got := after.Orders[id]
		if got == nil || got.Status != o.Status {
			t.Errorf("order %d: reopened status %+v, want %+v", id, got, o)
		}
	}
}

// TestCutTickFiltersRacedAppends: events stamped after the cut — appends
// that raced past the crash instant — are invisible to a cut replay.
func TestCutTickFiltersRacedAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Append(engine.Event{Kind: engine.EvBooked, Tick: 5, Order: 1})
	s.Append(engine.Event{Kind: engine.EvCleared, Tick: 8, Swap: "swap-000001", Orders: []engine.OrderID{1}})
	// This settle is stamped after the cut: it must not survive a cut-8
	// replay even though it sits in the file.
	s.Append(engine.Event{Kind: engine.EvSettled, Tick: 12, Order: 1, Swap: "swap-000001", Class: int(outcome.Deal)})
	s.Close()

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	st, err := r.ResolvedState(8)
	if err != nil {
		t.Fatalf("ResolvedState(8): %v", err)
	}
	if o := st.Orders[1]; o == nil || o.Status != "cleared" {
		t.Fatalf("cut replay sees order 1 as %+v, want cleared", st.Orders[1])
	}
	// And the cut refuses to run on top of a snapshot that may already
	// bake in post-cut events.
	if err := r.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := r.ResolvedState(8); err == nil {
		t.Fatalf("cut replay over a later snapshot succeeded, want error")
	}
}

// TestIntakeRejectionKeepsOffer: an order the engine's intake event
// rejects (its offer contradicts the ledger) was never booked, so its
// rejection is the only record of it in the log — and it carries the
// offer, which the fold keeps for the recovered order.
func TestIntakeRejectionKeepsOffer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offer := engine.LoadOffer(3, 1, 3, 0)
	s.Append(engine.Event{Kind: engine.EvRejected, Tick: 4, Order: 7, Reason: "amounts differ", Offer: &offer})
	s.Close()

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	st, err := r.ResolvedState(0)
	if err != nil {
		t.Fatalf("ResolvedState: %v", err)
	}
	o := st.Orders[7]
	if o == nil || o.Status != "rejected" || o.Reason != "amounts differ" || !reflect.DeepEqual(o.Offer, offer) {
		t.Fatalf("recovered order 7: %+v, want rejected with its offer %+v", o, offer)
	}
}

// TestRecovery10kEventsUnderSecond is the CI smoke bound from the issue:
// folding a 10k-event log back into a live engine stays under a second.
func TestRecovery10kEventsUnderSecond(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 10_000, Options{})

	e, rec, err := Recover(engine.Config{Workers: 2, Deterministic: true}, RecoverOptions{Dir: dir})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer e.Stop(context.Background())
	if rec.Events < 10_000 {
		t.Errorf("replayed %d events, want >= 10000", rec.Events)
	}
	if rec.WallMs >= 1000 {
		t.Errorf("recovery took %.1fms, want < 1000ms", rec.WallMs)
	}
}

// TestResolveRefundRules pins the resume-vs-refund policy: reveal-phase
// swaps refund, budget-starved swaps refund, early-phase swaps with
// budget resume.
func TestResolveRefundRules(t *testing.T) {
	st := NewState()
	mk := func(id engine.OrderID, swap string, phase string, deadline vtime.Ticks) {
		st.Apply(engine.Event{Kind: engine.EvBooked, Tick: 1, Order: id})
		st.Apply(engine.Event{Kind: engine.EvCleared, Tick: 2, Swap: swap, Orders: []engine.OrderID{id}})
		if phase != "" {
			st.Apply(engine.Event{Kind: engine.EvPhase, Tick: 3, Swap: swap, Phase: phase, Deadline: deadline})
		}
	}
	mk(1, "swap-000001", "reveal", 1000) // reveal ⇒ refund, budget notwithstanding
	mk(2, "swap-000002", "escrow", 119)  // 119-100 < 2Δ=20 ⇒ refund
	mk(3, "swap-000003", "escrow", 1000) // plenty of budget ⇒ resume
	mk(4, "swap-000004", "", 0)          // never started ⇒ resume

	rs, resumed, refunded := st.Resolve(100, 10)
	if resumed != 2 || refunded != 2 {
		t.Fatalf("Resolve: %d resumed, %d refunded; want 2, 2", resumed, refunded)
	}
	byID := map[engine.OrderID]engine.RecoveredOrder{}
	for _, o := range rs.Orders {
		byID[o.ID] = o
	}
	for _, id := range []engine.OrderID{1, 2} {
		o := byID[id]
		if o.Status != engine.StatusSettled || o.Class != outcome.NoDeal || o.SettledTick != 100 {
			t.Errorf("order %d: %+v, want refunded (settled NoDeal at tick 100)", id, o)
		}
	}
	for _, id := range []engine.OrderID{3, 4} {
		if o := byID[id]; o.Status != engine.StatusPending || o.Swap != "" {
			t.Errorf("order %d: %+v, want resumed (pending, no swap)", id, o)
		}
	}
}

// TestTornTailSurvivesReopen: a torn final frame is cut off by the Open
// that finds it, so the segment it sat in can stop being final without
// turning into "torn frame in non-final segment" on the next Open. Three
// open/close rounds, the same fold every time.
func TestTornTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 20, Options{})

	torn, whole := tearTail(t, dir)

	var first *State
	for round := 1; round <= 3; round++ {
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open #%d after a torn tail: %v", round, err)
		}
		st, err := s.ResolvedState(0)
		if err != nil {
			t.Fatalf("ResolvedState #%d: %v", round, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", round, err)
		}
		if first == nil {
			first = st
			if len(st.Orders) != 10 || st.Events != 20 {
				t.Fatalf("torn tail: folded %d orders from %d events, want 10 from 20", len(st.Orders), st.Events)
			}
		} else if !reflect.DeepEqual(st, first) {
			t.Errorf("Open #%d folds to %s, first Open folded to %s", round, mustJSON(t, st), mustJSON(t, first))
		}
		if fi, err := os.Stat(torn); err != nil {
			t.Errorf("after Open #%d: %v", round, err)
		} else if fi.Size() != whole {
			t.Errorf("after Open #%d the torn segment is %d bytes, want it cut back to %d", round, fi.Size(), whole)
		}
	}
}

// TestTornCreateDropped: a crash between a segment's creation and its
// magic leaves the final segment empty or holding a prefix of the magic.
// Open drops it and folds what came before, and so does the Open after
// that; a short file that is not a prefix of the magic still fails.
func TestTornCreateDropped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes string
	}{{"empty", ""}, {"magic prefix", "ASW"}, {"not the magic", "XYZ"}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir, 20, Options{})
			names, err := segmentNames(dir)
			if err != nil || len(names) == 0 {
				t.Fatalf("segmentNames: %v (%d segments)", err, len(names))
			}
			last, _ := segmentIndex(names[len(names)-1])
			torn := filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", last+1))
			if err := os.WriteFile(torn, []byte(tc.bytes), 0o644); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(walMagic), tc.bytes) {
				if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
					t.Fatalf("Open over a %q final segment: got %v, want ErrCorrupt (bad magic)", tc.bytes, err)
				}
				return
			}
			for round := 1; round <= 2; round++ {
				s, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatalf("Open #%d over a torn create: %v", round, err)
				}
				st, err := s.ResolvedState(0)
				if err != nil {
					t.Fatalf("ResolvedState #%d: %v", round, err)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("Close #%d: %v", round, err)
				}
				if len(st.Orders) != 10 || st.Events != 20 {
					t.Errorf("Open #%d folded %d orders from %d events, want 10 from 20", round, len(st.Orders), st.Events)
				}
				// As if it were absent: the segment Open starts takes the
				// torn one's place.
				if data, err := os.ReadFile(torn); err != nil || string(data) != string(walMagic) {
					t.Errorf("after Open #%d the torn segment's place holds %q (%v), want a fresh segment", round, data, err)
				}
			}
		})
	}
}

// TestResolvedStateCutAcrossSnapshot: with a cut, the fold restarts from
// the snapshot file. A cut at or after the snapshot's max tick folds the
// snapshot plus the tail events at or before the cut — the same as
// folding every event at or before the cut — and a cut before it errors.
func TestResolvedStateCutAcrossSnapshot(t *testing.T) {
	var events []engine.Event
	for n := 0; n < 6; n++ {
		events = append(events, swapEvents(n)...)
	}
	const snapAt = 70 // events folded into the snapshot; the rest stay in the tail
	snapTick := vtime.Ticks(0)
	for _, ev := range events[:snapAt] {
		snapTick = max(snapTick, ev.Tick)
	}
	last := events[len(events)-1].Tick

	foldUpTo := func(cut vtime.Ticks) *State {
		st := NewState()
		for _, ev := range events {
			if ev.Tick <= cut {
				st.Apply(ev)
			}
		}
		return st
	}
	check := func(s *Store, when string) {
		t.Helper()
		for _, cut := range []vtime.Ticks{snapTick, snapTick + 3, last - 1, last, last + 100} {
			got, err := s.ResolvedState(cut)
			if err != nil {
				t.Fatalf("%s: ResolvedState(%d): %v", when, cut, err)
			}
			if want := foldUpTo(cut); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ResolvedState(%d) =\n%s\nwant the fold of every event at or before the cut\n%s",
					when, cut, mustJSON(t, got), mustJSON(t, want))
			}
		}
		for _, cut := range []vtime.Ticks{1, snapTick - 1} {
			if _, err := s.ResolvedState(cut); err == nil {
				t.Errorf("%s: ResolvedState(%d) succeeded over a snapshot at tick %d, want an error", when, cut, snapTick)
			}
		}
	}

	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, ev := range events {
		if i == snapAt {
			if err := s.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
		s.Append(ev)
	}
	check(s, "writing store")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	check(r, "reopened store")
}

// references collects the address of every map, pointer target and
// slice backing array reachable from v.
func references(v reflect.Value, into map[uintptr]string, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			into[v.Pointer()] = path
			references(v.Elem(), into, path)
		}
	case reflect.Map:
		if !v.IsNil() {
			into[v.Pointer()] = path
			for it := v.MapRange(); it.Next(); {
				references(it.Value(), into, fmt.Sprintf("%s[%v]", path, it.Key()))
			}
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			into[v.Pointer()] = path
		}
		for i := 0; i < v.Len(); i++ {
			references(v.Index(i), into, fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			references(v.Field(i), into, path+"."+v.Type().Field(i).Name)
		}
	}
}

// TestStateCloneDeep: Clone is what the JSON round trip it replaced
// produced — deep-equal to it on a populated fold — and shares no map,
// slice or pointer with its source.
func TestStateCloneDeep(t *testing.T) {
	src := fixtureFold()
	before := mustJSON(t, src)
	clone := src.Clone()

	viaJSON := NewState()
	if err := json.Unmarshal([]byte(before), viaJSON); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(clone, viaJSON) {
		t.Errorf("Clone =\n%s\nJSON round trip =\n%s", mustJSON(t, clone), mustJSON(t, viaJSON))
	}

	srcRefs, cloneRefs := map[uintptr]string{}, map[uintptr]string{}
	references(reflect.ValueOf(src), srcRefs, "State")
	references(reflect.ValueOf(clone), cloneRefs, "State")
	if len(cloneRefs) != len(srcRefs) {
		t.Errorf("clone reaches %d maps/slices/pointers, source %d", len(cloneRefs), len(srcRefs))
	}
	for addr, path := range cloneRefs {
		if shared, ok := srcRefs[addr]; ok {
			t.Errorf("clone's %s shares memory with the source's %s", path, shared)
		}
	}

	// Folding on into the clone leaves the source as it was.
	for _, ev := range swapEvents(fixtureSwaps) {
		clone.Apply(ev)
	}
	for _, o := range clone.Orders {
		if len(o.Offer.Give) > 0 {
			o.Offer.Give[0].Amount++
		}
	}
	if after := mustJSON(t, src); after != before {
		t.Errorf("mutating the clone changed the source:\n%s\nwas\n%s", after, before)
	}
	if empty := NewState().Clone(); !reflect.DeepEqual(empty, NewState()) {
		t.Errorf("clone of an empty fold = %+v, want empty non-nil maps", empty)
	}
}
