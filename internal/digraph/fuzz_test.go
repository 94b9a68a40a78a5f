package digraph_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
)

// FuzzDigraphDecode checks Decode on arbitrary bytes: it never panics,
// every refusal is an ErrEncoding, and a digraph it accepts re-encodes to
// the very bytes it was decoded from, so no two encodings name one
// digraph. The corpus is seeded with the encodings of the graphgen
// shapes.
func FuzzDigraphDecode(f *testing.F) {
	for _, d := range []*digraph.Digraph{
		digraph.New(),
		graphgen.ThreeWay(),
		graphgen.TwoLeaderTriangle(),
		graphgen.Cycle(3),
		graphgen.Cycle(200),
		graphgen.BidirCycle(4),
		graphgen.Clique(4),
		graphgen.Flower(3, 2),
		graphgen.LeaderDAG(6, 0.5, 1),
		graphgen.RandomStronglyConnected(8, 0.3, 2),
		graphgen.NotStronglyConnected(2, 3),
		graphgen.MultiArcPair(3),
	} {
		f.Add(d.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := digraph.Decode(data)
		if err != nil {
			if !errors.Is(err, digraph.ErrEncoding) {
				t.Fatalf("Decode(%x): %v, not an ErrEncoding", data, err)
			}
			return
		}
		if got := d.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("Decode(%x) re-encodes to %x", data, got)
		}
		if d.EncodedSize() != len(data) {
			t.Fatalf("Decode(%x): EncodedSize %d", data, d.EncodedSize())
		}
	})
}
