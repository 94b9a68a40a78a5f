package hashkey

import (
	"bytes"
	"crypto/ed25519"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// cliqueTable binds four metered signers to a table for three leaders
// (vertexes 0–2) on a complete digraph: twelve slots, every one wanted.
// Nothing fills it; each test decides who computes what.
func cliqueTable(t *testing.T) (*presigned, []*Signer, []Secret, *Meter) {
	t.Helper()
	r := detRand(41)
	m := new(Meter)
	signers := make([]*Signer, 4)
	for v := range signers {
		s, err := NewSigner(digraph.Vertex(v), r)
		if err != nil {
			t.Fatal(err)
		}
		s.SetMeter(m)
		signers[v] = s
	}
	secrets := make([]Secret, 3)
	for i := range secrets {
		secrets[i], _ = NewSecret(r)
	}
	everyone := func(v, leader digraph.Vertex) bool { return true }
	tab := newPresigned(signers, []digraph.Vertex{0, 1, 2}, secrets, everyone)
	return tab, signers, secrets, m
}

// signAll plays a clique's signing: each leader signs its secret, then
// every other vertex wraps the leader's signature. It returns the
// signatures by [lock][vertex].
func signAll(signers []*Signer, secrets []Secret) [][][]byte {
	out := make([][][]byte, len(secrets))
	for i := range secrets {
		out[i] = make([][]byte, len(signers))
		out[i][i] = signers[i].Sign(secrets[i][:])
		for v := range signers {
			if v != i {
				out[i][v] = signers[v].Sign(out[i][i])
			}
		}
	}
	return out
}

func TestPresignedBytesEqualSign(t *testing.T) {
	tab, signers, secrets, m := cliqueTable(t)
	tab.fill()
	got := signAll(signers, secrets)
	for i := range secrets {
		want := ed25519.Sign(signers[i].priv, secrets[i][:])
		if !bytes.Equal(got[i][i], want) {
			t.Fatalf("lock %d: presigned leader signature differs from ed25519.Sign", i)
		}
		for v := range signers {
			if v != i && !bytes.Equal(got[i][v], ed25519.Sign(signers[v].priv, want)) {
				t.Fatalf("lock %d vertex %d: presigned wrap differs from ed25519.Sign", i, v)
			}
		}
	}
	if st := m.Stats(); st != (SignStats{Signs: 12, Presigned: 12}) {
		t.Fatalf("stats %+v, want 12 signs all presigned", st)
	}
}

func TestPresignMismatchSignsInline(t *testing.T) {
	tab, signers, secrets, m := cliqueTable(t)
	tab.fill()
	// A follower signing a leader's secret, a leader signing another
	// lock's secret, and a stranger message: none is the message of one
	// of the signer's own slots.
	for _, tc := range []struct {
		v   int
		msg []byte
	}{{3, secrets[0][:]}, {1, secrets[0][:]}, {2, []byte("not a slot message")}} {
		got := signers[tc.v].Sign(tc.msg)
		if !ed25519.Verify(signers[tc.v].pub, tc.msg, got) ||
			!bytes.Equal(got, ed25519.Sign(signers[tc.v].priv, tc.msg)) {
			t.Fatalf("vertex %d: inline signature is not ed25519.Sign's", tc.v)
		}
	}
	if st := m.Stats(); st != (SignStats{Signs: 3, Inline: 3, Wasted: 12}) {
		t.Fatalf("stats %+v, want 3 inline signs and 12 slots never taken", st)
	}
}

// TestPresignOwnSlotsOnly: a binding rebound to another vertex carries no
// table, so it cannot reach that vertex's presigned signature; it signs
// inline with its own key.
func TestPresignOwnSlotsOnly(t *testing.T) {
	tab, signers, secrets, _ := cliqueTable(t)
	tab.fill()
	leaderSig := signers[0].Sign(secrets[0][:])
	rebound := signers[3].At(1)
	got := rebound.Sign(leaderSig)
	if !bytes.Equal(got, ed25519.Sign(signers[3].priv, leaderSig)) {
		t.Fatal("a rebound binding returned a signature not made with its own key")
	}
	if rebound.pre != nil {
		t.Fatal("At carried the presigned table to another vertex")
	}
}

func TestPresignMeterCountsOncePerSign(t *testing.T) {
	tab, signers, secrets, m := cliqueTable(t)
	check := func(path string, want SignStats) {
		t.Helper()
		if st := m.Stats(); st != want {
			t.Fatalf("%s: stats %+v, want %+v", path, st, want)
		}
	}
	// Nothing filled yet: the leader claims its own slot and signs inline.
	sig0 := signers[0].Sign(secrets[0][:])
	check("claimed by the caller", SignStats{Signs: 1, Inline: 1})
	tab.fill()
	check("filled", SignStats{Signs: 1, Inline: 1, Wasted: 11})
	signers[1].Sign(sig0)
	check("presigned", SignStats{Signs: 2, Presigned: 1, Inline: 1, Wasted: 10})
	signers[1].Sign(sig0) // the same slot again: one more sign, no more slots used
	check("presigned again", SignStats{Signs: 3, Presigned: 2, Inline: 1, Wasted: 10})
	signers[1].Sign([]byte("mismatch"))
	check("mismatch", SignStats{Signs: 4, Presigned: 2, Inline: 2, Wasted: 10})
	plain, _ := NewSigner(0, detRand(3))
	plain.SetMeter(m)
	plain.Sign(secrets[0][:])
	check("no table", SignStats{Signs: 5, Presigned: 2, Inline: 3, Wasted: 10})
}

// TestPresignClaimRace forces both orders of a claim race on one slot,
// the presign goroutine against the party taking it, and checks the slot
// is computed once, by whoever claimed it, and waited for by the other.
func TestPresignClaimRace(t *testing.T) {
	t.Run("filler first", func(t *testing.T) {
		tab, signers, secrets, m := cliqueTable(t)
		claimed, gate := make(chan struct{}), make(chan struct{})
		var claims sync.Map // slot claims by who made them
		tab.hook = func(ahead bool) {
			n, _ := claims.LoadOrStore(ahead, new(int))
			*n.(*int)++
			if ahead && *n.(*int) == 1 {
				close(claimed) // the filler holds slot (0, 0), unfinished
				<-gate
			}
		}
		done := make(chan struct{})
		go func() { tab.fill(); close(done) }()
		<-claimed
		got := make(chan []byte)
		go func() { got <- signers[0].Sign(secrets[0][:]) }()
		time.Sleep(5 * time.Millisecond) // let the taker reach the claimed slot
		close(gate)
		sig := <-got
		<-done
		if !bytes.Equal(sig, ed25519.Sign(signers[0].priv, secrets[0][:])) {
			t.Fatal("waited-for slot holds the wrong signature")
		}
		if _, ok := claims.Load(false); ok {
			t.Fatal("the taker computed a slot the filler had claimed")
		}
		if st := m.Stats(); st != (SignStats{Signs: 1, Presigned: 1, Wasted: 11}) {
			t.Fatalf("stats %+v, want one presigned take of twelve filled slots", st)
		}
	})
	t.Run("taker first", func(t *testing.T) {
		tab, signers, secrets, m := cliqueTable(t)
		claimed, gate := make(chan struct{}), make(chan struct{})
		var fillerClaims int
		tab.hook = func(ahead bool) {
			if ahead {
				fillerClaims++ // only the filler goroutine writes it
				return
			}
			close(claimed) // the taker holds slot (0, 0), unfinished
			<-gate
		}
		got := make(chan []byte)
		go func() { got <- signers[0].Sign(secrets[0][:]) }()
		<-claimed
		done := make(chan struct{})
		go func() { tab.fill(); close(done) }()
		time.Sleep(5 * time.Millisecond) // let the filler reach the claimed slot
		close(gate)
		sig := <-got
		<-done
		if !bytes.Equal(sig, ed25519.Sign(signers[0].priv, secrets[0][:])) {
			t.Fatal("taker's slot holds the wrong signature")
		}
		if fillerClaims != 11 {
			t.Fatalf("filler computed %d slots, want the 11 the taker did not claim", fillerClaims)
		}
		if st := m.Stats(); st != (SignStats{Signs: 1, Inline: 1, Wasted: 11}) {
			t.Fatalf("stats %+v, want one inline sign and 11 filled slots", st)
		}
	})
}

// TestPresignLeavesUnshownSlotsEmpty: a vertex never shown a leader's own
// signature (no arc to it) gets no slot for that lock; the filler skips it
// and the vertex's wrap of a longer chain signs inline.
func TestPresignLeavesUnshownSlotsEmpty(t *testing.T) {
	d, signers, dir := testBench(t) // ring 0→1→2→0
	secret, _ := NewSecret(detRand(9))
	m := new(Meter)
	for _, s := range signers {
		s.SetMeter(m)
	}
	tab := newPresigned(signers, []digraph.Vertex{0}, []Secret{secret}, d.HasArcBetween)
	tab.fill()
	if st := m.Stats(); st.Wasted != 2 {
		t.Fatalf("filled %d slots, want the leader's and vertex 2's (its arc enters the leader)", st.Wasted)
	}
	key := New(secret, signers[0]).Extend(signers[2]).Extend(signers[1])
	if err := key.VerifyCrypto(secret.Lock(), 0, dir); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st != (SignStats{Signs: 3, Presigned: 2, Inline: 1}) {
		t.Fatalf("stats %+v, want two presigned signs and vertex 1's inline", st)
	}
}

// TestPresignBoundsBacklog: Presign queues a table only while there is
// a spare core and room in the backlog. Otherwise it builds no table and
// leaves every signer as it was, so all signing is inline.
func TestPresignBoundsBacklog(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, signers, secrets, _ := cliqueTable(t)
	plain := make([]*Signer, len(signers))
	for v, s := range signers {
		plain[v] = &Signer{vertex: s.vertex, pub: s.pub, priv: s.priv, meter: s.meter}
	}
	everyone := func(v, leader digraph.Vertex) bool { return true }
	leaders := []digraph.Vertex{0, 1, 2}
	try := func(what string, want bool) {
		t.Helper()
		bound := slices.Clone(plain)
		if got := Presign(bound, leaders, secrets, everyone); got != want {
			t.Fatalf("%s: Presign = %v, want %v", what, got, want)
		}
		for v := range bound {
			if (bound[v] != plain[v]) != want {
				t.Fatalf("%s: vertex %d binding replaced = %v, want %v", what, v, bound[v] != plain[v], want)
			}
		}
	}
	// A faked full backlog holds no tables, so no filler (say, one left by
	// an earlier -count round) may be draining it.
	setQueued := func(n int) {
		for {
			backlog.Lock()
			if backlog.fillers == 0 {
				backlog.n = n
				backlog.Unlock()
				return
			}
			backlog.Unlock()
			time.Sleep(time.Millisecond)
		}
	}
	setQueued(maxBacklog) // nothing else in this package calls Presign
	try("full backlog", false)
	setQueued(0)
	runtime.GOMAXPROCS(1)
	try("one core", false)
	runtime.GOMAXPROCS(2)
	try("spare core", true)
}
