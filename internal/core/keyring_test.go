package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
)

func TestKeyringGeneratesOncePerParty(t *testing.T) {
	k := NewKeyring(rand.New(rand.NewSource(5)))
	s1, err := k.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := k.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Public(), s2.Public()) {
		t.Error("second Ensure returned a different identity")
	}
	if k.Len() != 1 {
		t.Errorf("Len = %d, want 1", k.Len())
	}
	sb, err := k.Ensure("bob")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1.Public(), sb.Public()) {
		t.Error("distinct parties share an identity")
	}
}

func TestKeyringVertexRebinding(t *testing.T) {
	k := NewKeyring(rand.New(rand.NewSource(6)))
	s, err := k.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	s3, s7 := s.At(3), s.At(7)
	if s3.Vertex() != 3 || s7.Vertex() != 7 {
		t.Errorf("vertexes = %d, %d; want 3, 7", s3.Vertex(), s7.Vertex())
	}
	if !bytes.Equal(s3.Public(), s7.Public()) {
		t.Error("rebinding changed the key material")
	}
	msg := []byte("cross-swap message")
	if !bytes.Equal(s3.Sign(msg), s7.Sign(msg)) {
		t.Error("rebinding changed signatures")
	}
}

func TestKeyringConcurrentEnsure(t *testing.T) {
	// crypto/rand here: the keyring must serialize access to the reader
	// internally, and a math/rand source would only hide ordering races.
	k := NewKeyring(nil)
	const workers = 16
	pubs := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := k.Ensure("shared-party")
			if err != nil {
				t.Error(err)
				return
			}
			pubs[i] = s.Public()
		}()
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if !bytes.Equal(pubs[0], pubs[i]) {
			t.Fatalf("worker %d saw a different identity", i)
		}
	}
	if k.Len() != 1 {
		t.Errorf("Len = %d, want 1", k.Len())
	}
}

// TestKeyringPartiesSorted pins the deterministic enumeration order.
func TestKeyringPartiesSorted(t *testing.T) {
	k := NewKeyring(rand.New(rand.NewSource(10)))
	for _, p := range []chain.PartyID{"zed", "alice", "mid"} {
		if _, err := k.Ensure(p); err != nil {
			t.Fatal(err)
		}
	}
	got := k.Parties()
	want := []chain.PartyID{"alice", "mid", "zed"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Parties() = %v, want %v", got, want)
		}
	}
}
