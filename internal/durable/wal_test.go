package durable

import (
	"bytes"
	"errors"
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
