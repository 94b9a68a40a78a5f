package adversary

import (
	"crypto/ed25519"
	"runtime"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
)

// snoop is a cartel member that tries to get another vertex's presigned
// signature out of the signing identity its Env hands it: on every
// message another vertex's slot holds — each signature it is shown, and
// the secrets the cartel shares — it signs through Signer() and through
// Signer() rebound to every other vertex.
type snoop struct {
	core.Behavior
	secrets      []hashkey.Secret
	tries, leaks *int
}

func (s *snoop) Init(e core.Env) {
	s.probe(e, nil)
	s.Behavior.Init(e)
}

func (s *snoop) OnUnlock(e core.Env, arcID, lockIdx int, key hashkey.Hashkey) {
	s.probe(e, key.Sigs)
	s.Behavior.OnUnlock(e, arcID, lockIdx, key)
}

func (s *snoop) probe(e core.Env, shown [][]byte) {
	spec := e.Spec()
	msgs := shown
	for _, sec := range s.secrets {
		msgs = append(msgs, sec[:])
	}
	for _, m := range msgs {
		for w := 0; w < spec.D.NumVertices(); w++ {
			rebound := e.Signer().At(digraph.Vertex(w))
			for _, sig := range [][]byte{e.Signer().Sign(m), rebound.Sign(m)} {
				*s.tries++
				for u, pub := range spec.Keys {
					if digraph.Vertex(u) != e.Vertex() && ed25519.Verify(pub, m, sig) {
						*s.leaks++
					}
				}
			}
		}
	}
}

// TestCartelReachesNoOtherSlot runs a K4 swap with its signatures
// presigned on a spare core and a secret-sharing cartel whose members
// snoop: no signature any member obtains verifies under another vertex's
// key, and the swap still ends all-Deal for the conforming parties.
func TestCartelReachesNoOtherSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	setup := mustSetup(t, graphgen.Clique(4), core.Config{})
	members := []digraph.Vertex{1, 3}
	var tries, leaks int
	r := conc.NewRunner(setup)
	for v, b := range Coalition(CoalitionConfig{Setup: setup, Members: members, Seed: 5}) {
		shared := []hashkey.Secret{setup.Secrets[1]} // leader 1 is a member
		r.SetBehavior(v, &snoop{Behavior: b, secrets: shared, tries: &tries, leaks: &leaks})
	}
	res := mustRun(t, r)
	assertConformingSafe(t, res)
	if tries == 0 {
		t.Fatal("the cartel never probed")
	}
	if leaks != 0 {
		t.Fatalf("%d of %d signatures a cartel member obtained verify under another vertex's key", leaks, tries)
	}
}
