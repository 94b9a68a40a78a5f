package hashkey

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/digraph"
)

// Meter counts the signatures made under the identities that share it,
// and where they ran. A keyring installs one on every identity it hands
// out (see Signer.SetMeter).
type Meter struct {
	signs     atomic.Uint64 // every Sign call
	presigned atomic.Uint64 // Sign calls answered by a slot filled ahead
	filled    atomic.Uint64 // slots computed by a presign goroutine
	used      atomic.Uint64 // of those, slots taken at least once
	waited    atomic.Uint64 // Sign calls that waited for a filler (awaitFiller)
	waitNanos atomic.Int64  // their total wait
}

// SignStats is a Meter's reading. Signs = Presigned + Inline: each Sign
// call is counted once, on whichever path answered it.
type SignStats struct {
	// Signs counts every Sign call.
	Signs uint64
	// Presigned counts Sign calls answered by a signature computed ahead
	// of need, off the caller's goroutine.
	Presigned uint64
	// Inline counts Sign calls the caller computed itself: no table, a
	// message that matched no slot, or a slot the caller claimed first.
	Inline uint64
	// Wasted counts slots filled ahead that no Sign has taken (yet): the
	// signatures of swaps that aborted before needing them, or of swaps
	// still in flight.
	Wasted uint64
	// Waited counts Sign calls that found their slot claimed by a filler
	// still computing it and waited for it, each for at most
	// fillerPatience (past that, it signed inline); WaitTime is their
	// total wait in wall time. Both depend on timing, not on the swap.
	Waited   uint64
	WaitTime time.Duration
}

// Stats reads the meter.
func (m *Meter) Stats() SignStats {
	used := m.used.Load() // before filled: filled ≥ used at every instant
	st := SignStats{Signs: m.signs.Load(), Presigned: m.presigned.Load()}
	st.Inline = st.Signs - st.Presigned
	st.Wasted = m.filled.Load() - used
	st.Waited, st.WaitTime = m.waited.Load(), time.Duration(m.waitNanos.Load())
	return st
}

func (s SignStats) String() string {
	return fmt.Sprintf("signing: %d signs, %d presigned, %d inline; %d filled ahead and never taken; %d waited for a filler, %v in all",
		s.Signs, s.Presigned, s.Inline, s.Wasted, s.Waited, s.WaitTime)
}

// Slot states. A slot moves free → claimed → ready exactly once: whoever
// claims it computes it, and everyone else waits for ready. A filler has
// a core the dispatcher is not using (see backlog), so its wait is about
// one signature long, shorter than parking and waking would be. But that
// core is Go's, not the machine's: when the host takes it away, the wait
// lasts as long as the filler is off it. So a party waits for a filler
// for at most fillerPatience and then signs inline; only the filler
// waits without bound, for a leader's slot a party claimed, because its
// wraps sign that signature.
const (
	slotFree uint32 = iota
	slotClaimed
	slotReady
)

// slot is one presigned signature. Its message is implicit in its place
// in the table (see presigned.take).
type slot struct {
	state atomic.Uint32
	// ahead records that the presign goroutine computed the signature;
	// written before state becomes ready, read only after.
	ahead bool
	// wanted marks the slots the table fills; the others are never
	// claimed and always sign inline.
	wanted bool
	taken  atomic.Bool
	sig    [SigSize]byte
}

// presigned is the table of one multi-leader swap's signatures, indexed
// [lock][vertex]: slot (i, leader_i) is the leader's signature over
// secret i, and slot (i, v) for any other v is v's wrap of that
// signature, which is what v signs when the first hashkey it is shown for
// lock i is the leader's own. Every message is fixed once the secrets are
// drawn and Ed25519 signing is deterministic, so a slot holds the very
// bytes the party would compute inline.
//
// The table is private key material: it is reachable only from the
// per-vertex bindings Presign hands out, and a binding looks up only its
// own vertex's slots.
type presigned struct {
	leaders []digraph.Vertex
	secrets []Secret
	signers []Signer // the bindings, by vertex
	slots   []slot
	meter   *Meter
	// hook, when set (tests), runs after a claim and before the slot is
	// computed, told whether the presign goroutine made the claim.
	hook func(ahead bool)
}

// backlog holds the tables waiting for a filler, oldest first, in a ring
// of fixed size, and counts the fillers draining it. At most GOMAXPROCS−1
// fillers run, so each has a core the dispatcher is not using; a filler
// exits when the backlog is empty. A full backlog builds no table, so
// setups that never run (rejected, or built only to be inspected) leave
// at most maxBacklog tables of work behind.
var backlog struct {
	sync.Mutex
	ring    [maxBacklog]*presigned
	head, n int
	fillers int
}

// maxBacklog bounds the tables waiting for a filler.
const maxBacklog = 16

// Presign binds each of a swap's signers (indexed by vertex) to a table
// of the swap's multi-leader signatures, replacing signers[v] with the
// binding for v, and queues the table for a filler goroutine that
// computes it: first every leader's signature over its secret, then each
// wrap of it by a vertex v for which shown(v, leader) holds. A party's
// Sign takes a slot only when its message is byte-equal to the slot's, so
// the protocol sees the same bytes whichever goroutine computed them.
//
// With no spare core (GOMAXPROCS 1) or a full backlog, Presign builds
// nothing, leaves signers as they are and reports false: every Sign then
// runs inline. The bindings share their key material and meter with the
// signers they replace. Nothing waits for a filler, and a party that
// needs a slot first computes it itself.
func Presign(signers []*Signer, leaders []digraph.Vertex, secrets []Secret, shown func(v, leader digraph.Vertex) bool) bool {
	places := runtime.GOMAXPROCS(0) - 1
	backlog.Lock()
	if places < 1 || backlog.n == maxBacklog {
		backlog.Unlock()
		return false
	}
	backlog.ring[(backlog.head+backlog.n)%maxBacklog] = newPresigned(signers, leaders, secrets, shown)
	backlog.n++
	start := backlog.fillers < places
	if start {
		backlog.fillers++
	}
	backlog.Unlock()
	if start {
		go drain()
	}
	return true
}

// drain fills queued tables, oldest first, until the backlog is empty.
func drain() {
	for {
		backlog.Lock()
		if backlog.n == 0 {
			backlog.fillers--
			backlog.Unlock()
			return
		}
		t := backlog.ring[backlog.head]
		backlog.ring[backlog.head] = nil
		backlog.head = (backlog.head + 1) % maxBacklog
		backlog.n--
		backlog.Unlock()
		t.fill()
	}
}

func newPresigned(signers []*Signer, leaders []digraph.Vertex, secrets []Secret, shown func(v, leader digraph.Vertex) bool) *presigned {
	n := len(signers)
	t := &presigned{
		leaders: leaders,
		secrets: secrets,
		signers: make([]Signer, n),
		slots:   make([]slot, len(leaders)*n),
		meter:   signers[0].meter,
	}
	for v, s := range signers {
		t.signers[v] = Signer{vertex: digraph.Vertex(v), pub: s.pub, priv: s.priv, meter: s.meter, pre: t}
		signers[v] = &t.signers[v]
	}
	for i, l := range leaders {
		for v := range signers {
			t.slots[i*n+v].wanted = digraph.Vertex(v) == l || shown(digraph.Vertex(v), l)
		}
	}
	return t
}

// fill computes every wanted slot not already claimed: the leaders'
// signatures first, since every wrap's message is one of them.
func (t *presigned) fill() {
	n := len(t.signers)
	for i, l := range t.leaders {
		sl := &t.slots[i*n+int(l)]
		if !t.claim(sl, l, t.secrets[i][:], true) {
			for sl.state.Load() != slotReady {
				runtime.Gosched()
			}
		}
	}
	for i, l := range t.leaders {
		msg := t.slots[i*n+int(l)].sig[:]
		for v := 0; v < n; v++ {
			if sl := &t.slots[i*n+v]; sl.wanted && digraph.Vertex(v) != l {
				t.claim(sl, digraph.Vertex(v), msg, true)
			}
		}
	}
}

// claim computes v's signature over msg into the slot when the slot is
// free, and reports whether it did.
func (t *presigned) claim(sl *slot, v digraph.Vertex, msg []byte, ahead bool) bool {
	if !sl.state.CompareAndSwap(slotFree, slotClaimed) {
		return false
	}
	if t.hook != nil {
		t.hook(ahead)
	}
	copy(sl.sig[:], ed25519.Sign(t.signers[v].priv, msg))
	sl.ahead = ahead
	if ahead && t.meter != nil {
		t.meter.filled.Add(1)
	}
	sl.state.Store(slotReady)
	return true
}

// fillerPatience bounds how long a party waits for a slot the filler is
// computing: a few signatures on any current core, and short of the
// milliseconds a wait lasts once the host takes the filler's core away.
// A variable only so a test can lengthen it.
var fillerPatience = 200 * time.Microsecond

// awaitFiller waits for the filler to finish sl, for at most
// fillerPatience, and reports whether it did. A wait is metered with its
// length; the clock is read only when the slot is not ready yet.
func (t *presigned) awaitFiller(sl *slot) bool {
	if sl.state.Load() == slotReady {
		return true
	}
	start := time.Now()
	for sl.state.Load() != slotReady {
		if time.Since(start) > fillerPatience {
			t.noteWait(start)
			return false
		}
		runtime.Gosched()
	}
	t.noteWait(start)
	return true
}

// noteWait meters one wait for a filler, begun at start.
func (t *presigned) noteWait(start time.Time) {
	if t.meter != nil {
		t.meter.waited.Add(1)
		t.meter.waitNanos.Add(int64(time.Since(start)))
	}
}

// take answers v's Sign(msg) from the table, copying the signature into
// dst, when msg is the message of one of v's slots, and reports whether
// it did. A wrap's message is known only once the leader's signature is
// ready; before that nobody honest can hold it.
func (t *presigned) take(dst *[SigSize]byte, v digraph.Vertex, msg []byte) bool {
	n := len(t.signers)
	for i, l := range t.leaders {
		sl := &t.slots[i*n+int(v)]
		if !sl.wanted {
			continue
		}
		var want []byte
		if l == v {
			want = t.secrets[i][:]
		} else {
			ls := &t.slots[i*n+int(l)]
			if ls.state.Load() != slotReady {
				continue
			}
			want = ls.sig[:]
		}
		if !bytes.Equal(msg, want) {
			continue
		}
		if !t.claim(sl, v, want, false) && !t.awaitFiller(sl) {
			return false // the filler is off its core: sign inline
		}
		if sl.ahead && t.meter != nil {
			t.meter.presigned.Add(1)
			if sl.taken.CompareAndSwap(false, true) {
				t.meter.used.Add(1)
			}
		}
		*dst = sl.sig
		return true
	}
	return false
}
