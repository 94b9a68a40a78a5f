package engine

import (
	"cmp"
	"slices"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// book is the pending order book. Every pending order carries its booking
// position and sits on up to three intrusive lists:
//
//   - the FIFO of the whole book (order.next/prev), for the walks that
//     want every pending order in booking order;
//   - its party's FIFO chain (order.pnext/pprev);
//   - if it is its party's oldest pending order, heads — one entry per
//     party with anything pending, sorted by booking position.
//
// A clearing round wants the first pending order of each party, in book
// order, cut off at its batch limit: that is a prefix of heads, so a round
// costs O(min(limit, parties)) whatever the book's depth. Leaving the book
// unlinks the order and promotes the party's next one into heads; nothing
// is ever scanned or compacted. The links live in order and the per-party
// record is a map value, so booking allocates nothing of its own.
//
// The engine mutex guards the book; it has no lock of its own.
type book struct {
	first, last *order
	n           int
	parties     map[chain.PartyID]partyChain
	heads       []*order
	nextPos     uint64

	// maxTick is the highest submit tick ever booked; an order booked with
	// a lower one is late (escalated and restored orders are re-booked
	// with the tick they first entered the system at), and lastLate is
	// the position of the latest such booking. From there on the FIFO is
	// sorted by submit tick as well as by position, so takeThrough may
	// stop at the first order past both lastLate and its cutoff.
	maxTick  vtime.Ticks
	lastLate uint64

	// visits counts the orders batch has handed out — the work a clearing
	// round does on the book. Tests pin depth-independence on it.
	visits uint64
}

// partyChain is one party's share of the book: its pending count and the
// tail of its chain. The chain's head is in heads and is found from the
// order itself (pprev == nil).
type partyChain struct {
	tail *order
	n    int
}

func newBook() book {
	return book{parties: make(map[chain.PartyID]partyChain)}
}

// add books o at the end of the book.
func (b *book) add(o *order) {
	b.nextPos++
	o.pos = b.nextPos
	if o.submittedTick.Before(b.maxTick) {
		b.lastLate = o.pos
	} else {
		b.maxTick = o.submittedTick
	}

	o.prev, o.next = b.last, nil
	if b.last != nil {
		b.last.next = o
	} else {
		b.first = o
	}
	b.last = o
	b.n++

	pc := b.parties[o.offer.Party]
	o.pprev, o.pnext = pc.tail, nil
	if pc.tail != nil {
		pc.tail.pnext = o
	} else {
		// Positions only grow, so a party's first pending order sorts
		// after every head already there.
		b.heads = append(b.heads, o)
	}
	pc.tail = o
	pc.n++
	b.parties[o.offer.Party] = pc
}

// remove unlinks a booked order, wherever in the book it sits.
func (b *book) remove(o *order) {
	if o.prev != nil {
		o.prev.next = o.next
	} else {
		b.first = o.next
	}
	if o.next != nil {
		o.next.prev = o.prev
	} else {
		b.last = o.prev
	}
	b.n--

	pc := b.parties[o.offer.Party]
	if o.pnext != nil {
		o.pnext.pprev = o.pprev
	} else {
		pc.tail = o.pprev
	}
	if o.pprev != nil {
		o.pprev.pnext = o.pnext
	} else {
		b.replaceHead(o, o.pnext)
	}
	if pc.n--; pc.n == 0 {
		delete(b.parties, o.offer.Party)
	} else {
		b.parties[o.offer.Party] = pc
	}
	o.prev, o.next, o.pprev, o.pnext, o.pos = nil, nil, nil, nil, 0
}

// replaceHead takes old out of heads and, if its party has a next pending
// order, puts that one in at its sorted place: a binary search each, and
// one move of the entries in between.
func (b *book) replaceHead(old, next *order) {
	i := b.headIndex(old.pos)
	if next == nil {
		last := len(b.heads) - 1
		copy(b.heads[i:], b.heads[i+1:])
		b.heads[last] = nil
		b.heads = b.heads[:last]
		return
	}
	j := b.headIndex(next.pos) // > i: next was booked after old
	copy(b.heads[i:j-1], b.heads[i+1:j])
	b.heads[j-1] = next
}

// headIndex is the index of the first head booked at or after pos.
func (b *book) headIndex(pos uint64) int {
	i, _ := slices.BinarySearchFunc(b.heads, pos, func(o *order, pos uint64) int {
		return cmp.Compare(o.pos, pos)
	})
	return i
}

// batch appends a clearing round's candidates to dst: the oldest pending
// order of each party, in book order, at most limit of them.
func (b *book) batch(dst []*order, limit int) []*order {
	k := min(limit, len(b.heads))
	b.visits += uint64(k)
	return append(dst, b.heads[:k]...)
}

// all lists every pending order in book order.
func (b *book) all() []*order {
	out := make([]*order, 0, b.n)
	for o := b.first; o != nil; o = o.next {
		out = append(out, o)
	}
	return out
}

// takeThrough removes every order submitted at or before cutoff and hands
// each to take, in book order.
func (b *book) takeThrough(cutoff vtime.Ticks, take func(*order)) {
	for o := b.first; o != nil; {
		next := o.next
		if !o.submittedTick.After(cutoff) {
			b.remove(o)
			take(o)
		} else if o.pos >= b.lastLate {
			return
		}
		o = next
	}
}

// len is the book's depth.
func (b *book) len() int { return b.n }

// of is the named party's pending count.
func (b *book) of(party chain.PartyID) int { return b.parties[party].n }

// partyCount is the number of parties with anything pending.
func (b *book) partyCount() int { return len(b.heads) }
