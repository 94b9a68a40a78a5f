package atomicswap_test

// Benchmarks mirroring the experiment index of DESIGN.md §4 — one bench
// per figure/claim of the paper plus micro-benches for the primitives.
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/baseline"
	"github.com/go-atomicswap/atomicswap/internal/conc"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/pebble"
)

// benchRun times protocol execution with setup fully outside the timed
// region: the timer only covers Runner.Run, and per-swap setup cost is
// reported as its own metric instead of hiding in StopTimer noise — which
// is what makes keyring gains (setup-side) visible next to run-side wins.
func benchRun(b *testing.B, d *digraph.Digraph, cfg core.Config) {
	b.Helper()
	b.ReportAllocs()
	var setupNS, runNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := cfg
		cfg.Rand = rand.New(rand.NewSource(int64(i)))
		t0 := time.Now()
		setup, err := core.NewSetup(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := conc.NewRunner(setup)
		setupNS += time.Since(t0)
		b.StartTimer()
		t1 := time.Now()
		res, err := r.Run()
		runNS += time.Since(t1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.AllDeal() {
			b.Fatal("bench run not AllDeal")
		}
	}
	b.ReportMetric(float64(setupNS.Nanoseconds())/float64(b.N), "setup-ns/op")
	b.ReportMetric(float64(runNS.Nanoseconds())/float64(b.N), "run-ns/op")
}

// BenchmarkThreeWaySwap is E1: the Figures 1–2 swap end to end.
func BenchmarkThreeWaySwap(b *testing.B) {
	benchRun(b, graphgen.ThreeWay(), core.Config{})
}

// BenchmarkFullSwap is E2: full-protocol runs across the sweep families.
func BenchmarkFullSwap(b *testing.B) {
	families := []struct {
		name string
		d    *digraph.Digraph
	}{
		{"cycle4", graphgen.Cycle(4)},
		{"cycle8", graphgen.Cycle(8)},
		{"cycle12", graphgen.Cycle(12)},
		{"clique4", graphgen.Clique(4)},
		{"clique6", graphgen.Clique(6)},
		{"twoleader", graphgen.TwoLeaderTriangle()},
		{"bidir7", graphgen.BidirCycle(7)},
		{"random10", graphgen.RandomStronglyConnected(10, 0.25, 5)},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) { benchRun(b, f.d, core.Config{}) })
	}
}

// BenchmarkSingleLeader is E8: the Section 4.6 timeout-staircase variant.
func BenchmarkSingleLeader(b *testing.B) {
	b.Run("threeway", func(b *testing.B) {
		benchRun(b, graphgen.ThreeWay(), core.Config{Kind: core.KindSingleLeader})
	})
	b.Run("flower4x2", func(b *testing.B) {
		d := graphgen.Flower(4, 2)
		center, _ := d.VertexByName("L")
		benchRun(b, d, core.Config{Kind: core.KindSingleLeader, Leaders: []digraph.Vertex{center}})
	})
}

// BenchmarkBroadcast is E15: Phase Two with the shared broadcast chain.
func BenchmarkBroadcast(b *testing.B) {
	b.Run("cycle8-plain", func(b *testing.B) { benchRun(b, graphgen.Cycle(8), core.Config{}) })
	b.Run("cycle8-broadcast", func(b *testing.B) { benchRun(b, graphgen.Cycle(8), core.Config{Broadcast: true}) })
}

// BenchmarkAdversarialRun is E5: a full run under a colluding coalition.
func BenchmarkAdversarialRun(b *testing.B) {
	d := graphgen.TwoLeaderTriangle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		setup, err := core.NewSetup(d, core.Config{Rand: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		r := conc.NewRunner(setup)
		for v, bhv := range adversary.Coalition(adversary.CoalitionConfig{
			Setup: setup, Members: []digraph.Vertex{0, 2}, Seed: int64(i), DropProb: 0.3, HaltProb: 0.3,
		}) {
			r.SetBehavior(v, bhv)
		}
		b.StartTimer()
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialBaseline is E11's non-atomic baseline.
func BenchmarkSequentialBaseline(b *testing.B) {
	d := graphgen.Cycle(6)
	assets := baseline.DefaultAssets(d)
	parties := baseline.PartyNames(d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Sequential(d, assets, parties, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecurrent is E13: five piggybacked rounds.
func BenchmarkRecurrent(b *testing.B) {
	d := graphgen.ThreeWay()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conc.RunRecurrent(d, 5, true, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPebble is E10: the two games of Section 4.4.
func BenchmarkPebble(b *testing.B) {
	d := graphgen.RandomStronglyConnected(12, 0.25, 7)
	leaders := d.GreedyFVS()
	dt := d.Transpose()
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := pebble.Lazy(d, leaders); !res.Complete {
				b.Fatal("incomplete")
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := pebble.Eager(dt, leaders[0]); !res.Complete {
				b.Fatal("incomplete")
			}
		}
	})
}

// hashkeyBench builds the shared verification fixture (hashkey.NewFixture)
// deterministically for a bench.
func hashkeyBench(b *testing.B, hops int) (*digraph.Digraph, hashkey.Directory, hashkey.Lock, hashkey.Hashkey, []*hashkey.Signer) {
	b.Helper()
	fx, err := hashkey.NewFixture(hops, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return fx.D, fx.Dir, fx.Lock, fx.Key, fx.Signers
}

// BenchmarkHashkey covers the crypto primitives: chain extension and
// verification at Figure 7-like path lengths. The verify-pN variants use
// the amortizing cache (as every contract built from a Spec now does);
// verify-pN-uncached is the full O(|p|) chain walk for comparison.
func BenchmarkHashkey(b *testing.B) {
	for _, hops := range []int{0, 4, 12} {
		hops := hops
		b.Run(fmt.Sprintf("verify-p%d", hops), func(b *testing.B) {
			d, dir, lock, key, _ := hashkeyBench(b, hops)
			cache := hashkey.NewVerifyCache(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := key.VerifyExtended(lock, d, 0, dir, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("verify-p%d-uncached", hops), func(b *testing.B) {
			d, dir, lock, key, _ := hashkeyBench(b, hops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := key.Verify(lock, d, 0, dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// verify-extend-fastpath is the protocol's actual unlock pattern: the
	// presented key is a one-link extension of a chain some other contract
	// already verified, so the timed cost is a single ed25519 verification
	// regardless of |p|. Each iteration seeds a fresh cache with only the
	// suffix (timer stopped), then times the first sight of the extension.
	b.Run("verify-extend-fastpath", func(b *testing.B) {
		const hops = 12
		d, dir, lock, key, signers := hashkeyBench(b, hops)
		suffix := hashkey.New(key.Secret, signers[0])
		for i := 1; i < hops; i++ {
			suffix = suffix.Extend(signers[i])
		}
		ext := suffix.Extend(signers[hops])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := hashkey.NewVerifyCache(0)
			if err := suffix.VerifyExtended(lock, d, 0, dir, cache); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := ext.VerifyExtended(lock, d, 0, dir, cache); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extend", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		s0, _ := hashkey.NewSigner(0, rng)
		s1, _ := hashkey.NewSigner(1, rng)
		secret, _ := hashkey.NewSecret(rng)
		key := hashkey.New(secret, s0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = key.Extend(s1)
		}
	})
}

// BenchmarkKeyring measures what the persistent keyring takes off the
// clearing round: setup-fresh regenerates every party identity per swap
// (the pre-keyring engine), setup-keyring reuses persistent identities,
// and signer-for is the per-party rebinding cost on the hot path.
func BenchmarkKeyring(b *testing.B) {
	d := graphgen.ThreeWay()
	b.Run("setup-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewSetup(d, core.Config{Rand: rand.New(rand.NewSource(int64(i)))}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("setup-keyring", func(b *testing.B) {
		k := core.NewKeyring(rand.New(rand.NewSource(7)))
		cache := hashkey.NewVerifyCache(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewSetup(d, core.Config{
				Rand: rand.New(rand.NewSource(int64(i))), Keyring: k, Cache: cache,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebind", func(b *testing.B) {
		k := core.NewKeyring(rand.New(rand.NewSource(8)))
		if _, err := k.Ensure("alice"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := k.Ensure("alice")
			if err != nil {
				b.Fatal(err)
			}
			s.At(digraph.Vertex(i % 16))
		}
	})
}

// BenchmarkGraphAlgorithms covers the digraph machinery the spec builder
// runs: SCC, diameter, and feedback vertex sets.
func BenchmarkGraphAlgorithms(b *testing.B) {
	d := graphgen.RandomStronglyConnected(12, 0.3, 9)
	b.Run("scc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !d.StronglyConnected() {
				b.Fatal("should be SC")
			}
		}
	})
	b.Run("diameter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if diam, _ := d.Diameter(); diam <= 0 {
				b.Fatal("bad diameter")
			}
		}
	})
	b.Run("fvs-exact", func(b *testing.B) {
		small := graphgen.RandomStronglyConnected(8, 0.3, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fvs := small.ExactMinFVS(); len(fvs) == 0 {
				b.Fatal("empty FVS on cyclic digraph")
			}
		}
	})
	b.Run("fvs-greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fvs := d.GreedyFVS(); len(fvs) == 0 {
				b.Fatal("empty FVS on cyclic digraph")
			}
		}
	})
}
