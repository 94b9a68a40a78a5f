package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// drain waits until s's worker has folded every event appended to s so
// far, and written every snapshot handed to it: from then until the next
// append, the test may read s.live.
func drain(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
}

// segmentBytes is the size of the store's active segment file on disk.
func segmentBytes(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := s.seg.Stat()
	if err != nil {
		t.Errorf("stat segment: %v", err)
		return -1
	}
	return fi.Size()
}

// TestSealOncePerTick: a bound store leaves a tick's frames pending
// through every level of the tick below sched.TopLevel and writes them
// all at its seal; unbound, or once its scheduler has closed, it writes
// every append at once.
func TestSealOncePerTick(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	magic := int64(len(walMagic))
	events := swapEvents(0)

	s.Append(events[0])
	unbound := segmentBytes(t, s)
	if unbound <= magic {
		t.Fatalf("unbound append left the segment at %d bytes: not written", unbound)
	}

	var frames int64 // what the tick appends, framed
	for i := 1; i < 4; i++ {
		frames += int64(frameHeader + len(appendEvent(nil, &events[i])))
	}
	v := sched.NewVirtual(1)
	s.SealOn(v)
	v.At(3, func() {
		for _, ev := range events[1:4] {
			s.Append(ev)
		}
	})
	v.AtLevel(3, sched.TopLevel-1, 0, func() {
		if got := segmentBytes(t, s); got != unbound {
			t.Errorf("below the seal's level the segment holds %d bytes, want %d: appends written before the seal", got, unbound)
		}
	})
	sealed := unbound + frames
	v.AtLevel(3, math.MaxInt8, 0, func() {
		if got := segmentBytes(t, s); got != sealed {
			t.Errorf("after the seal the segment holds %d bytes, want %d", got, sealed)
		}
	})
	v.RunUntil(10)

	// A closed scheduler runs no seal, so the store seals at once.
	s.Append(events[4])
	if got := segmentBytes(t, s); got <= sealed {
		t.Errorf("append after the scheduler closed left the segment at %d bytes, want more than %d", got, sealed)
	}

	// A seal queued on a held scheduler does not outlive a rebinding: the
	// pending frame is sealed at SealOn, and the new scheduler's seal is
	// queued afresh.
	held := sched.NewVirtual(1) // born held: its seal never runs
	defer held.Close()
	s.SealOn(held)
	s.Append(events[5])
	before := segmentBytes(t, s)
	next := sched.NewVirtual(1)
	s.SealOn(next)
	if got := segmentBytes(t, s); got <= before {
		t.Errorf("SealOn left the pending frame unwritten (%d bytes, was %d)", got, before)
	}
	rebound := segmentBytes(t, s)
	next.At(1, func() { s.Append(events[6]) })
	next.AtLevel(1, math.MaxInt8, 0, func() {
		if got := segmentBytes(t, s); got <= rebound {
			t.Errorf("the rebound store's tick was not sealed (%d bytes, was %d)", got, rebound)
		}
	})
	next.RunUntil(2)
	if err := s.Err(); err != nil {
		t.Fatalf("store latched %v", err)
	}
}

// sealWatcher is the store the kill test hands its engine: the durable
// Store, plus an observer queued at level math.MaxInt8 of every tick that
// appends — after the tick's seal and before anything of the next tick.
type sealWatcher struct {
	*Store
	observe func()

	mu   sync.Mutex
	v    *sched.Virtual
	last vtime.Ticks // the tick an observer was queued for last
}

// SealOn binds the store and keeps the scheduler for the observers.
func (w *sealWatcher) SealOn(v *sched.Virtual) {
	w.mu.Lock()
	w.v = v
	w.mu.Unlock()
	w.Store.SealOn(v)
}

// Append implements engine.Store.
func (w *sealWatcher) Append(ev engine.Event) {
	w.Store.Append(ev)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.v == nil {
		return // unbound: the host has closed
	}
	if now := w.v.Now(); now != w.last {
		w.last = now
		w.v.AtLevel(now, math.MaxInt8, 0, w.observe)
	}
}

// copyFiles copies every file of src into dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// openedFold opens a copy of dir, made in a fresh directory under base,
// as recovery after a kill -9 at this instant would, and returns the fold
// it reads.
func openedFold(base, dir string) (*State, error) {
	cp, err := os.MkdirTemp(base, "kill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cp)
	if err := copyFiles(dir, cp); err != nil {
		return nil, err
	}
	r, err := Open(Options{Dir: cp})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ResolvedState(0)
}

// TestKillAtEverySeal is the group-commit crash contract: a kill -9 cuts
// the log at a seal. A deterministic engine (deviants included, so abort
// paths log too) runs over a bound store that rotates and snapshots
// inside the run; after every tick that appended, the directory as it
// stands must open to exactly the store's live fold.
func TestKillAtEverySeal(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, SnapshotEvery: 200})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	copies := t.TempDir()
	w := &sealWatcher{Store: store, last: -1}
	var observed, rotated, snapshotted int
	w.observe = func() {
		observed++
		names, _ := segmentNames(dir)
		rotated = max(rotated, len(names)-1)
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
			snapshotted++
		}
		want, err := store.ResolvedState(0)
		if err != nil {
			t.Errorf("ResolvedState: %v", err)
			return
		}
		got, err := openedFold(copies, dir)
		if err != nil {
			t.Errorf("tick %d: the directory does not open: %v", want.MaxTick, err)
			return
		}
		// mustJSON would stop the test from the dispatcher's goroutine.
		g, gerr := json.Marshal(got)
		w, werr := json.Marshal(want)
		if gerr != nil || werr != nil || !bytes.Equal(g, w) {
			t.Errorf("tick %d: the directory opens to %d events, the store has folded %d", want.MaxTick, got.Events, want.Events)
		}
	}
	e := engine.New(engine.Config{
		Deterministic: true,
		Workers:       4,
		Seed:          11,
		AdversaryRate: 0.2,
		Store:         w,
	})
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	const rings, ringSize = 24, 3
	for r := 0; r < rings; r++ {
		for i := 0; i < ringSize; i++ {
			if _, err := e.Submit(engine.LoadOffer(r, i, ringSize, r%8)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if observed < 10 || rotated == 0 || snapshotted == 0 {
		t.Errorf("observed %d seals, at most %d rotations behind one, %d with a snapshot; want ≥ 10, ≥ 1 and ≥ 1", observed, rotated, snapshotted)
	}

	// Stop closed the host, which unbound the store and so sealed the last
	// tick's frames: the directory holds everything before the store is
	// closed.
	want, err := store.ResolvedState(0)
	if err != nil {
		t.Fatalf("ResolvedState: %v", err)
	}
	got, err := openedFold(copies, dir)
	if err != nil {
		t.Fatalf("the stopped engine's directory does not open: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Errorf("the stopped engine's directory opens to %d events, the store folded %d", got.Events, want.Events)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRotationLatchesSyncFailure: rotation fsyncs the full segment before
// it starts the next, and a failed fsync latches like a failed write. The
// failure is injected by swapping the null device in as the active
// segment, which takes writes and refuses fsync.
func TestRotationLatchesSyncFailure(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no null device: %v", err)
	}
	if null.Sync() == nil {
		null.Close()
		t.Skip("the null device accepts fsync here: no failure to inject")
	}
	s, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.mu.Lock()
	s.seg.Close()
	s.seg = null
	idx := s.segIdx
	s.mu.Unlock()

	events := swapEvents(0)
	s.Append(events[0]) // one frame outgrows 64 bytes: rotate
	if err := s.Err(); err == nil {
		t.Fatal("a rotation whose fsync failed latched no error")
	}
	s.Append(events[1])
	drain(s)
	if s.segIdx != idx || s.live.Events != 1 {
		t.Errorf("after the latched failure: segment %d (was %d), %d events folded; want no rotation and 1 event", s.segIdx, idx, s.live.Events)
	}
}

// TestTickSealLatchesWriteFailure: a tick's seal that fails to write
// latches like every other seal: Err reports it, and later appends are
// dropped instead of landing after a gap in the log. The failure is
// injected by closing the active segment under the store.
func TestTickSealLatchesWriteFailure(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.mu.Lock()
	s.seg.Close()
	s.mu.Unlock()

	v := sched.NewVirtual(1)
	s.SealOn(v)
	events := swapEvents(0)
	v.At(1, func() {
		s.Append(events[0])
		s.Append(events[1])
		if err := s.Err(); err != nil {
			t.Errorf("appends before the seal latched %v", err)
		}
	})
	v.AtLevel(1, math.MaxInt8, 0, func() {
		if s.Err() == nil {
			t.Error("a tick whose seal failed to write latched no error")
		}
	})
	v.At(2, func() { s.Append(events[2]) })
	v.RunUntil(3)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	if s.live.Events != 2 || len(s.pending) != 0 {
		t.Errorf("after the failed seal: %d events folded, %d bytes pending; want 2 and 0", s.live.Events, len(s.pending))
	}
}
