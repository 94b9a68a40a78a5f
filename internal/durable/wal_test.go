package durable

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzParseFrames: parseFrames never panics on arbitrary bytes; whatever
// prefix it accepts re-encodes to exactly that prefix (all of the input
// when it reports no error); and any payload framed by appendFrame parses
// back to itself, alone and after the accepted prefix.
func FuzzParseFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, []byte(`{"kind":"shed","tick":4,"count":2}`)))
	f.Add(appendFrame(appendFrame(nil, nil), []byte("second")))
	f.Add(append(appendFrame(nil, []byte("whole")), 0xff, 0x00, 0x00, 0x00, 0xde, 0xad)) // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})                                 // length past maxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := parseFrames(data)
		if err != nil && !errors.Is(err, errTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("parseFrames: unexpected error %v", err)
		}
		var accepted []byte
		for _, p := range frames {
			accepted = appendFrame(accepted, p)
		}
		if !bytes.HasPrefix(data, accepted) {
			t.Fatalf("accepted frames re-encode to %x, not a prefix of the input %x", accepted, data)
		}
		if err == nil && len(accepted) != len(data) {
			t.Fatalf("no error, but only %d of %d bytes accepted", len(accepted), len(data))
		}

		again, err := parseFrames(appendFrame(accepted, data))
		if err != nil {
			t.Fatalf("parseFrames(accepted prefix + appendFrame(data)): %v", err)
		}
		if len(again) != len(frames)+1 || !bytes.Equal(again[len(frames)], data) {
			t.Fatalf("a %d-byte payload framed after %d frames parsed back as %d frames", len(data), len(frames), len(again))
		}
		for i, p := range frames {
			if !bytes.Equal(again[i], p) {
				t.Fatalf("frame %d changed across the round trip", i)
			}
		}
	})
}

// TestSegmentIndex: segment names parse back to the index openSegment
// spelled them from, and nothing else parses: the reference is
// fmt.Sprintf("wal-%08d.seg", idx).
func TestSegmentIndex(t *testing.T) {
	for _, idx := range []int{0, 1, 7, 42, 99999999, 100000000, 1234567890} {
		name := fmt.Sprintf("wal-%08d.seg", idx)
		if got, ok := segmentIndex(name); !ok || got != idx {
			t.Errorf("segmentIndex(%q) = %d, %v; want %d, true", name, got, ok, idx)
		}
	}
	for _, name := range []string{
		"", "wal-.seg", "wal-0000001.seg", "wal-000000001.seg", "wal-+0000001.seg",
		"wal--0000001.seg", "wal-0000000a.seg", "wal-00000001.seg.tmp", "wal-00000001",
		"WAL-00000001.seg", "snapshot.json", "wal-99999999999999999999999.seg",
	} {
		if idx, ok := segmentIndex(name); ok {
			t.Errorf("segmentIndex(%q) = %d, true; want not a segment", name, idx)
		}
	}
	if raceEnabled {
		return // the race detector allocates on the path being counted
	}
	if n := testing.AllocsPerRun(100, func() { segmentIndex("wal-00000042.seg") }); n != 0 {
		t.Errorf("segmentIndex allocates %.0f objects, want 0", n)
	}
}
