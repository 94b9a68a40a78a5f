package durable

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// ringSwaps is the events of swaps ring swaps, swap by swap, as the
// engine logs them: swapEvents without the identity events no build logs
// any more.
func ringSwaps(swaps int) [][]engine.Event {
	out := make([][]engine.Event, swaps)
	for n := range out {
		for _, ev := range swapEvents(n) {
			if ev.Kind != engine.EvIdentity {
				out[n] = append(out[n], ev)
			}
		}
	}
	return out
}

// ringStream is ringSwaps, one swap after the other.
func ringStream(swaps int) []engine.Event {
	var evs []engine.Event
	for _, swap := range ringSwaps(swaps) {
		evs = append(evs, swap...)
	}
	return evs
}

// TestKillDuringBackgroundSnapshot is a kill -9 at every step of a
// snapshot the worker writes: after it folds the chunk the snapshot ends,
// after the temp file's fsync, after the rename, after the directory's
// fsync, and after each unlink of a segment the snapshot covers. At each,
// with the appender waiting for the worker, a copy of the directory must
// open to the fold of exactly the events sealed so far, which is every
// event appended: Events, Shed and Reverts included. The stream spans
// several snapshots, each over many segments, with a snapshot file from
// the one before it already in place.
func TestKillDuringBackgroundSnapshot(t *testing.T) {
	const snapshotEvery = 150
	dir, copies := t.TempDir(), t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 2048, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	var mu sync.Mutex // want and steps, read by the worker while the appender waits
	want := NewState()
	steps := make(map[string]int)
	s.w.step = func(point string) {
		mu.Lock()
		defer mu.Unlock()
		steps[point]++
		got, err := openedFold(copies, dir)
		if err != nil {
			t.Errorf("killed after %s #%d: the directory does not open: %v", point, steps[point], err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("killed after %s #%d: the directory folds %d events, Shed %d, Reverts %d; %d, %d, %d were sealed",
				point, steps[point], got.Events, got.Shed, got.Reverts, want.Events, want.Shed, want.Reverts)
		}
	}

	events := ringStream(40)
	for i, ev := range events {
		mu.Lock()
		want.Apply(ev)
		mu.Unlock()
		s.Append(ev)
		if (i+1)%snapshotEvery == 0 {
			drain(s) // the appender waits out the snapshot the worker writes
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("store latched %v", err)
	}
	snapshots := len(events) / snapshotEvery
	mu.Lock()
	defer mu.Unlock()
	if want.Shed == 0 || want.Reverts == 0 {
		t.Fatalf("the stream folds Shed %d and Reverts %d, want both counted", want.Shed, want.Reverts)
	}
	for _, point := range []string{"fold", "fsync", "rename", "dirsync"} {
		if steps[point] != snapshots {
			t.Errorf("paused after %s %d times, want once for each of %d snapshots", point, steps[point], snapshots)
		}
	}
	if steps["unlink"] < 2*snapshots {
		t.Errorf("paused after %d unlinks, want 2 or more for each of %d snapshots", steps["unlink"], snapshots)
	}
}

// TestStoreStats pins the meter's counts for a fixed event stream: the
// snapshots the worker writes and their bytes, each the frame of the fold
// up to its event with the cover of its rotation; one chunk each
// chunkEvents events or snapshot; a drain's partial chunk; and then a
// Snapshot of the caller's own.
func TestStoreStats(t *testing.T) {
	const snapshotEvery = 700
	events := ringStream(100)
	s, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	var want Stats
	var ks keyScratch
	fold := NewState()
	since := 0 // events since the last hand-off
	for i, ev := range events {
		s.Append(ev)
		fold.Apply(ev)
		since++
		switch {
		case (i+1)%snapshotEvery == 0:
			// Segment k-1 is retired for the k-th snapshot: it covers 0…k-1.
			want.Snapshots++
			want.SnapshotBytes += uint64(frameHeader + len(encodeSnapshot(nil, fold, int(want.Snapshots), &ks, nil)))
			want.Chunks++
			since = 0
		case since == chunkEvents:
			want.Chunks++
			since = 0
		}
	}
	if since > 0 {
		want.Chunks++ // the drain's
	}
	if _, err := s.ResolvedState(0); err != nil {
		t.Fatalf("ResolvedState: %v", err)
	}
	got := s.Stats()
	if want.Snapshots < 2 || want.Chunks < 2*want.Snapshots {
		t.Fatalf("the stream gives %d snapshots and %d chunks; want 2 or more, and more chunks", want.Snapshots, want.Chunks)
	}
	if got.Snapshots != want.Snapshots || got.SnapshotBytes != want.SnapshotBytes || got.Chunks != want.Chunks {
		t.Errorf("Stats = %v; want %d snapshots, %d bytes, %d chunks", got, want.Snapshots, want.SnapshotBytes, want.Chunks)
	}
	if got.Busy <= 0 || (got.Waited == 0) != (got.WaitTime == 0) {
		t.Errorf("Stats = %v: want busy time, and a wait time only with waits", got)
	}

	// A drain with nothing to hand over folds no chunk; a Snapshot is
	// metered like the worker's.
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	after := s.Stats()
	// It covers every segment up to the active one, the one the last
	// background snapshot rotated to.
	cover := int(want.Snapshots) + 1
	want.Snapshots++
	want.SnapshotBytes += uint64(frameHeader + len(encodeSnapshot(nil, fold, cover, &ks, nil)))
	if after.Snapshots != want.Snapshots || after.SnapshotBytes != want.SnapshotBytes || after.Chunks != want.Chunks {
		t.Errorf("after Snapshot, Stats = %v; want %d snapshots, %d bytes, %d chunks", after, want.Snapshots, want.SnapshotBytes, want.Chunks)
	}
}

// BenchmarkStoreAppend feeds the events of storeBenchSwaps ring swaps, a
// swap a tick, through a store bound to a scheduler, snapshotting every
// 4096 events, on a temporary directory: the durable workload's store
// without its engine. It reports the appending goroutine's time per event
// (ns/event, Append calls only) and the slowest Append (max-append-us),
// which is where a snapshot written inline, in the Append that reaches
// SnapshotEvery, stalls the dispatcher. Each op opens a fresh store, and
// its ns/op includes waiting for the worker and closing.
func BenchmarkStoreAppend(b *testing.B) {
	const storeBenchSwaps = 1200
	swaps := ringSwaps(storeBenchSwaps)
	events := 0
	for _, swap := range swaps {
		events += len(swap)
	}
	var inAppend, slowest time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Dir: b.TempDir(), SnapshotEvery: 4096})
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		v := sched.NewVirtual(1)
		s.SealOn(v)
		for n, swap := range swaps {
			v.At(vtime.Ticks(n+1), func() {
				for _, ev := range swap {
					begin := time.Now()
					s.Append(ev)
					took := time.Since(begin)
					inAppend += took
					slowest = max(slowest, took)
				}
			})
		}
		v.RunUntil(vtime.Ticks(storeBenchSwaps + 1))
		s.SealOn(nil)
		if err := s.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
	}
	b.ReportMetric(float64(inAppend.Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(float64(slowest.Microseconds()), "max-append-us")
}
