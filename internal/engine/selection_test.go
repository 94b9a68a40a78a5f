package engine

import (
	"strings"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
)

// contractKinds reads the ledgers: per swap tag, how many classic HTLCs and
// how many Swap contracts were published for it.
func contractKinds(t *testing.T, e *Engine) (htlcs, swaps map[string]int) {
	t.Helper()
	htlcs, swaps = make(map[string]int), make(map[string]int)
	for _, name := range e.Registry().Names() {
		ch := e.Registry().Chain(name)
		for _, rec := range ch.Records() {
			if rec.Kind != chain.NoteContractPublished {
				continue
			}
			tag, _, _ := strings.Cut(string(rec.Contract), "/")
			c, ok := ch.Contract(rec.Contract)
			if !ok {
				t.Fatalf("published contract %s not on chain %s", rec.Contract, name)
			}
			switch c.(type) {
			case *htlc.HTLC:
				htlcs[tag]++
			case *htlc.Swap:
				swaps[tag]++
			default:
				t.Fatalf("contract %s is a %T", rec.Contract, c)
			}
		}
	}
	return htlcs, swaps
}

// TestProtocolSelectionMixedRound books rings and four-party cliques
// together and requires each cleared component to run on its own protocol,
// read back from the ledgers: a ring (one leader) publishes classic HTLCs
// only, a clique (three leaders) Swap contracts only. The report's protocol
// split and the signature meter agree: the cliques sign |V|·|L| = 12 times
// each, the rings never.
func TestProtocolSelectionMixedRound(t *testing.T) {
	const each = 6
	var offers []core.Offer
	for s := 0; s < each; s++ {
		for i := 0; i < 3; i++ {
			offers = append(offers, LoadOffer(s, i, 3, s))
		}
		offers = append(offers, cliqueOffers(s, s)...)
	}
	e := startBooking(t, 0)
	bookAndDrain(t, e, offers)

	rep := e.Report()
	if rep.SwapsFinished != 2*each || rep.SwapsFailed != 0 || rep.Outcomes["Deal"] != len(offers) {
		t.Fatalf("finished %d swaps (%d failed), outcomes %v; want %d swaps, all Deal",
			rep.SwapsFinished, rep.SwapsFailed, rep.Outcomes, 2*each)
	}
	if rep.SwapsSingleLeader != each || rep.SwapsGeneral != each {
		t.Errorf("protocol split %d single-leader / %d general, want %d / %d",
			rep.SwapsSingleLeader, rep.SwapsGeneral, each, each)
	}
	if got, want := e.Keyring().Signs(), uint64(12*each); got != want {
		t.Errorf("%d signatures, want %d: 12 per clique, none per ring", got, want)
	}

	htlcs, swaps := contractKinds(t, e)
	rings, cliques := 0, 0
	for _, o := range e.Orders() {
		ring := strings.HasPrefix(o.Party, "r")
		switch {
		case ring && (htlcs[o.Swap] != 3 || swaps[o.Swap] != 0):
			t.Errorf("ring %s (party %s) published %d HTLCs and %d Swap contracts, want 3 and 0",
				o.Swap, o.Party, htlcs[o.Swap], swaps[o.Swap])
		case !ring && (htlcs[o.Swap] != 0 || swaps[o.Swap] != 12):
			t.Errorf("clique %s (party %s) published %d HTLCs and %d Swap contracts, want 0 and 12",
				o.Swap, o.Party, htlcs[o.Swap], swaps[o.Swap])
		}
		if ring {
			rings++
		} else {
			cliques++
		}
	}
	if rings != 3*each || cliques != 4*each {
		t.Fatalf("%d ring orders and %d clique orders, want %d and %d", rings, cliques, 3*each, 4*each)
	}
}

// TestRingRunSignsNothing: a run of rings alone never signs and never
// touches the verification cache — no hashkey exists to sign or check —
// while the same rings under a forced hashkey protocol sign once per
// party, and a clique signs 12 times either way.
func TestRingRunSignsNothing(t *testing.T) {
	const swaps = 8
	var rings, cliques []core.Offer
	for s := 0; s < swaps; s++ {
		for i := 0; i < 3; i++ {
			rings = append(rings, LoadOffer(s, i, 3, s%4))
		}
		cliques = append(cliques, cliqueOffers(s, s%4)...)
	}
	for _, tc := range []struct {
		name         string
		kind         core.Kind
		offers       []core.Offer
		signsPerSwap uint64
		singleLeader int
	}{
		{"ring-3", 0, rings, 0, swaps},
		{"ring-3-general", core.KindGeneral, rings, 3, 0},
		{"clique-4", 0, cliques, 12, 0},
		{"clique-4-general", core.KindGeneral, cliques, 12, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := startBooking(t, tc.kind)
			bookAndDrain(t, e, tc.offers)
			rep := e.Report()
			if rep.SwapsFinished != swaps || rep.Outcomes["Deal"] != len(tc.offers) {
				t.Fatalf("finished %d swaps, outcomes %v; want %d, all Deal", rep.SwapsFinished, rep.Outcomes, swaps)
			}
			if rep.SwapsSingleLeader != tc.singleLeader || rep.SwapsGeneral != swaps-tc.singleLeader {
				t.Errorf("protocol split %d single-leader / %d general, want %d / %d",
					rep.SwapsSingleLeader, rep.SwapsGeneral, tc.singleLeader, swaps-tc.singleLeader)
			}
			if got, want := e.Keyring().Signs(), tc.signsPerSwap*swaps; got != want {
				t.Errorf("%d signatures, want %d (%d per swap)", got, want, tc.signsPerSwap)
			}
			st := e.VerifyCacheStats()
			if tc.signsPerSwap == 0 {
				if st.Hits != 0 || st.Fastpath != 0 || st.Misses != 0 || st.Entries != 0 {
					t.Errorf("a signature-free run touched the verification cache: %+v", st)
				}
				if rep.SignsPerSwap != 0 {
					t.Errorf("signs_per_swap = %v on a signature-free run", rep.SignsPerSwap)
				}
			} else if st.Hits+st.Fastpath+st.Misses == 0 {
				t.Errorf("hashkey run never consulted the verification cache: %+v", st)
			}
		})
	}
}
