package conc

import (
	"math/rand"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// BenchmarkCliqueSwap is one K4 swap — three leaders, twelve signatures —
// from setup to settlement on a free clock, with persistent identities as
// a clearing engine keeps them. Setup is timed too: it is where a spare
// core is set signing ahead of need, so `-cpu 1,2,4` shows what the
// spare core buys.
func BenchmarkCliqueSwap(b *testing.B) {
	d := graphgen.Clique(4)
	k := core.NewKeyring(rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	v := sched.NewVirtual(1)
	defer v.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setup, err := core.NewSetup(d, core.Config{Keyring: k, Rand: rng})
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(setup, nil, Config{Scheduler: v, StartOffset: vtime.Duration(setup.Spec.Delta)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.AllDeal() {
			b.Fatal("clique swap did not end all-Deal")
		}
	}
	st := k.SignStats()
	b.ReportMetric(float64(st.Presigned)/float64(b.N), "presigned/op")
	b.ReportMetric(float64(st.Waited)/float64(b.N), "filler-waits/op")
	b.ReportMetric(float64(st.WaitTime.Nanoseconds())/float64(b.N), "filler-wait-ns/op")
}
