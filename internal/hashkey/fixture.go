package hashkey

import (
	"fmt"
	"io"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Fixture is the standard verification micro-benchmark scenario, shared by
// BenchmarkHashkey and the benchmark module's hashkey.* probes so both
// measure the identical workload.
type Fixture struct {
	D       *digraph.Digraph
	Dir     Directory
	Lock    Lock
	Key     Hashkey // path length Hops, ending at leader vertex 0
	Signers []*Signer
}

// NewFixture builds a hops+2-vertex cycle digraph (arcs i -> i-1 plus a
// closing arc), one signer per vertex from r, and a hashkey extended to
// path length hops whose leader is vertex 0.
func NewFixture(hops int, r io.Reader) (*Fixture, error) {
	n := hops + 2
	d := digraph.New()
	for i := 0; i < n; i++ {
		d.AddVertex("")
	}
	for i := n - 1; i > 0; i-- {
		d.MustAddArc(digraph.Vertex(i), digraph.Vertex(i-1))
	}
	d.MustAddArc(0, digraph.Vertex(n-1))
	signers := make([]*Signer, n)
	for i := range signers {
		s, err := NewSigner(digraph.Vertex(i), r)
		if err != nil {
			return nil, fmt.Errorf("hashkey: fixture: %w", err)
		}
		signers[i] = s
	}
	secret, err := NewSecret(r)
	if err != nil {
		return nil, fmt.Errorf("hashkey: fixture: %w", err)
	}
	key := New(secret, signers[0])
	for i := 1; i <= hops; i++ {
		key = key.Extend(signers[i])
	}
	return &Fixture{
		D:       d,
		Dir:     NewDirectory(signers...),
		Lock:    secret.Lock(),
		Key:     key,
		Signers: signers,
	}, nil
}
