package digraph

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)), 10, 0.3)
		got, err := Decode(d.Encode())
		if err != nil {
			return false
		}
		if !StructuralEqual(d, got) {
			return false
		}
		// Arc IDs (list order) must round-trip exactly, since contracts
		// reference arcs by ID.
		for _, a := range d.Arcs() {
			b := got.Arc(a.ID)
			if a.Head != b.Head || a.Tail != b.Tail {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSize(t *testing.T) {
	// A 300-cycle's vertex IDs and counts take one or two varint bytes.
	ring := make([][2]int, 300)
	for i := range ring {
		ring[i] = [2]int{i, (i + 1) % len(ring)}
	}
	for _, d := range []*Digraph{cycle3(), FromArcs(len(ring), ring...)} {
		if d.EncodedSize() != len(d.Encode()) {
			t.Errorf("EncodedSize %d, len(Encode()) %d", d.EncodedSize(), len(d.Encode()))
		}
	}
	// Size grows linearly-ish with arcs: the O(|A|) per-contract storage
	// that drives Theorem 4.10.
	small := cycle3().EncodedSize()
	big := FromArcs(6,
		[2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 0},
	).EncodedSize()
	if big <= small {
		t.Errorf("encoding of larger digraph (%d) should exceed smaller (%d)", big, small)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "missing arc count", data: []byte{3}},
		{name: "truncated arcs", data: []byte{3, 2, 0}},
		{name: "self loop arc", data: []byte{2, 1, 0, 0}},
		{name: "vertex out of range", data: []byte{2, 1, 0, 7}},
		{name: "trailing bytes", data: append(cycle3().Encode(), 0xFF)},
		{name: "padded vertex count", data: []byte{0x82, 0x00, 0}},
		{name: "padded arc end", data: []byte{2, 1, 0x80, 0x00, 1}},
		{name: "too many vertexes", data: binary.AppendUvarint(nil, MaxDecodedVertices+1)},
		{name: "more arcs than bytes", data: []byte{2, 3, 0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); !errors.Is(err, ErrEncoding) {
				t.Errorf("Decode(%v) err = %v, want ErrEncoding", tt.data, err)
			}
		})
	}
}

func TestDecodePreservesEmptyGraph(t *testing.T) {
	got, err := Decode(New().Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.NumVertices() != 0 || got.NumArcs() != 0 {
		t.Errorf("empty graph round-trip = (%d, %d)", got.NumVertices(), got.NumArcs())
	}
}
