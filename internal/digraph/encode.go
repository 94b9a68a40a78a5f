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

// Decode reconstructs a digraph from Encode output. Vertex names are the
// defaults ("v0", "v1", ...).
func Decode(data []byte) (*Digraph, error) {
	nv, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("%w: vertex count", ErrEncoding)
	}
	data = data[n:]
	na, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("%w: arc count", ErrEncoding)
	}
	data = data[n:]
	d := New()
	for i := uint64(0); i < nv; i++ {
		d.AddVertex("")
	}
	for i := uint64(0); i < na; i++ {
		head, hn := binary.Uvarint(data)
		if hn <= 0 {
			return nil, fmt.Errorf("%w: arc %d head", ErrEncoding, i)
		}
		data = data[hn:]
		tail, tn := binary.Uvarint(data)
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
