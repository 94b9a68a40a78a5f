package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// bigFold appends the events of swaps ring swaps to s and returns the
// length of the snapshot frame its fold encodes to.
func bigFold(t *testing.T, s *Store, swaps int) int {
	t.Helper()
	for n := 0; n < swaps; n++ {
		for _, ev := range swapEvents(n) {
			s.Append(ev)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("store latched %v", err)
	}
	drain(s)
	var ks keyScratch
	return frameHeader + len(appendSnapshot(nil, s.live, &ks))
}

// logFiles reads the snapshot file and every segment of dir, by name.
func logFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatalf("segmentNames: %v", err)
	}
	files := make(map[string][]byte)
	for _, name := range append(names, snapshotFile) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		files[name] = data
	}
	return files
}

// TestSnapshotStreams: a snapshot is written through a buffer of fixed
// size, not built whole in memory. The file it writes is the one frame
// encodeSnapshot specifies (with its cover), byte for byte, across many chunks; a snapshot
// that fails leaves the log it would have replaced, latched and whole;
// and snapshotting a fold of a megabyte or more allocates a fraction of
// it.
func TestSnapshotStreams(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		if n := bigFold(t, s, 320); n < 4*snapChunk {
			t.Fatalf("the fold's frame is %d bytes, want 4 chunks (%d) or more", n, 4*snapChunk)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		var ks keyScratch
		want := encodeSnapshot(make([]byte, frameHeader), s.live, s.segIdx, &ks, nil)
		sealFrame(want)
		got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatalf("read snapshot: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the streamed snapshot (%d bytes) differs from sealFrame(appendSnapshot(...)) (%d bytes)", len(got), len(want))
		}
	})

	t.Run("failed temp file", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		for _, ev := range swapEvents(0) {
			s.Append(ev)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		for _, ev := range swapEvents(1) {
			s.Append(ev)
		}
		if err := os.Mkdir(filepath.Join(dir, snapshotFile+".tmp"), 0o755); err != nil {
			t.Fatalf("Mkdir: %v", err)
		}
		before := logFiles(t, dir)
		err = s.Snapshot()
		if err == nil {
			t.Fatalf("Snapshot over a directory at the temp file's name succeeded, want an error")
		}
		if latched := s.Err(); latched != err {
			t.Errorf("Err() = %v after the failed snapshot, want it latched: %v", latched, err)
		}
		if after := logFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("the failed snapshot changed the log: %d files before, %d after", len(before), len(after))
		}
		want, err := s.ResolvedState(0)
		if err != nil {
			t.Fatalf("ResolvedState: %v", err)
		}
		if err := s.Close(); err != s.Err() {
			t.Errorf("Close = %v, want the latched error", err)
		}
		r, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		got, err := r.ResolvedState(0)
		if err != nil {
			t.Fatalf("ResolvedState after reopen: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("the directory opens to\n%s\nwant the live fold\n%s", mustJSON(t, got), mustJSON(t, want))
		}
	})

	t.Run("allocation", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates on the paths being counted")
		}
		s, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		n := bigFold(t, s, 1000)
		if n < 1<<20 {
			t.Fatalf("the fold's frame is %d bytes, want 1 MB or more", n)
		}
		const budget = 256 << 10
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("the store's first snapshot of a %d-byte fold allocated %d bytes", n, got)
		if got >= budget {
			t.Errorf("snapshotting a %d-byte fold allocated %d bytes, want under %d", n, got, budget)
		}
	})
}
