package digraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Binary encoding of the digraph structure.
//
// Every swap contract stores a copy of the digraph (Figure 4, line 3),
// which is what drives the paper's O(|A|²) bound on total space across all
// blockchains (Theorem 4.10: |A| contracts × O(|A|) bits each). The mock
// chains charge contracts for their encoded size, so the experiment for
// Theorem 4.10 measures real bytes of this encoding. Display names are not
// part of the on-chain structure.

// ErrEncoding reports a malformed digraph encoding.
var ErrEncoding = errors.New("digraph: malformed encoding")

// Encode serializes the digraph structure (vertex count plus arc list) with
// varints. Arc IDs are implicit in the order of the arc list.
func (d *Digraph) Encode() []byte {
	buf := make([]byte, 0, 2+3*len(d.arcs))
	buf = binary.AppendUvarint(buf, uint64(d.NumVertices()))
	buf = binary.AppendUvarint(buf, uint64(d.NumArcs()))
	for _, a := range d.arcs {
		buf = binary.AppendUvarint(buf, uint64(a.Head))
		buf = binary.AppendUvarint(buf, uint64(a.Tail))
	}
	return buf
}

// EncodedSize returns len(Encode()) without encoding: every Swap contract
// charges it to its chain.
func (d *Digraph) EncodedSize() int {
	n := uvarintLen(d.NumVertices()) + uvarintLen(d.NumArcs())
	for _, a := range d.arcs {
		n += uvarintLen(int(a.Head)) + uvarintLen(int(a.Tail))
	}
	return n
}

// uvarintLen is len(binary.AppendUvarint(nil, uint64(x))): one byte per
// seven bits.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// MaxDecodedVertices bounds the vertex count Decode accepts. The count is
// one varint, so without a bound a few bytes could ask for any amount of
// memory.
const MaxDecodedVertices = 1 << 16

// Decode reconstructs a digraph from Encode output, and accepts nothing
// else: every varint minimal, no trailing bytes, at most
// MaxDecodedVertices vertexes. So a digraph it returns re-encodes to the
// bytes it was decoded from. Vertex names are the defaults ("v0", "v1",
// ...).
func Decode(data []byte) (*Digraph, error) {
	nv, n := uvarint(data)
	if n <= 0 || nv > MaxDecodedVertices {
		return nil, fmt.Errorf("%w: vertex count", ErrEncoding)
	}
	data = data[n:]
	na, n := uvarint(data)
	if n <= 0 || na > uint64(len(data)-n)/2 { // an arc takes two bytes or more
		return nil, fmt.Errorf("%w: arc count", ErrEncoding)
	}
	data = data[n:]
	d := New()
	for i := uint64(0); i < nv; i++ {
		d.AddVertex("")
	}
	for i := uint64(0); i < na; i++ {
		head, hn := uvarint(data)
		if hn <= 0 {
			return nil, fmt.Errorf("%w: arc %d head", ErrEncoding, i)
		}
		data = data[hn:]
		tail, tn := uvarint(data)
		if tn <= 0 {
			return nil, fmt.Errorf("%w: arc %d tail", ErrEncoding, i)
		}
		data = data[tn:]
		if _, err := d.AddArc(Vertex(head), Vertex(tail)); err != nil {
			return nil, fmt.Errorf("%w: arc %d: %v", ErrEncoding, i, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrEncoding, len(data))
	}
	return d, nil
}

// uvarint is binary.Uvarint refusing a padded varint (n = 0), which
// Encode never writes.
func uvarint(data []byte) (uint64, int) {
	x, n := binary.Uvarint(data)
	if n > 0 && n != uvarintLen(int(x)) {
		return 0, 0
	}
	return x, n
}
