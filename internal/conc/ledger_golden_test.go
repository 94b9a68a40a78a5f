package conc

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/sched"
)

var updateLedgerGolden = flag.Bool("update-ledger-golden", false,
	"rewrite testdata/ring_ledger.golden from this build's runs")

// ringLedgerCases are the runs TestRingLedgerHashGolden pins: a conforming
// three-party ring on classic HTLCs, and the same ring with a follower
// that never redeems, so its entering arc refunds.
var ringLedgerCases = []struct {
	name    string
	deviate func(spec *core.Spec) map[digraph.Vertex]core.Behavior
}{
	{name: "ring-3"},
	{name: "ring-3-refund", deviate: func(spec *core.Spec) map[digraph.Vertex]core.Behavior {
		for v := 0; v < spec.D.NumVertices(); v++ {
			if !spec.IsLeader(digraph.Vertex(v)) {
				return map[digraph.Vertex]core.Behavior{digraph.Vertex(v): adversary.NoClaim()}
			}
		}
		return nil
	}},
}

// ringLedger runs one case standalone on a one-worker virtual scheduler
// and spells every chain's ledger: per record its kind, contract, sender,
// size and note, then the chain's head hash in hex.
func ringLedger(t *testing.T, name string, deviate func(*core.Spec) map[digraph.Vertex]core.Behavior) string {
	t.Helper()
	setup, err := core.NewSetup(graphgen.Cycle(3), core.Config{
		Kind: core.KindByLeaders, Tag: "golden", Rand: rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var behaviors map[digraph.Vertex]core.Behavior
	if deviate != nil {
		behaviors = deviate(setup.Spec)
	}
	sc := sched.NewVirtual(1)
	defer sc.Close()
	res, err := Run(setup, behaviors, Config{Scheduler: sc, StartOffset: 25})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: kind=%s report=%v\n", name, setup.Spec.Kind, res.Report)
	for _, chainName := range res.Registry.Names() {
		ch := res.Registry.Chain(chainName)
		if !ch.VerifyLedger() {
			t.Errorf("%s: chain %s does not verify", name, chainName)
		}
		recs := ch.Records()
		fmt.Fprintf(&b, "-- chain %s\n", chainName)
		for _, r := range recs {
			fmt.Fprintf(&b, "%d %s %q %q %d %q\n", r.Seq, r.Kind, r.Contract, r.Sender, r.Size, r.Note)
		}
		var head [32]byte
		if len(recs) > 0 {
			head = recs[len(recs)-1].Hash
		}
		fmt.Fprintf(&b, "head %s\n", hex.EncodeToString(head[:]))
	}
	return b.String()
}

// TestRingLedgerHashGolden pins what a ring writes on chain, byte for
// byte: every record's note and every chain's head hash, against
// testdata/ring_ledger.golden. VerifyLedger only checks a ledger against
// itself, so a ledger that spelled or hashed a note differently from the
// bytes it was first written with would pass every other test.
func TestRingLedgerHashGolden(t *testing.T) {
	path := filepath.Join("testdata", "ring_ledger.golden")
	if *updateLedgerGolden {
		var b strings.Builder
		for _, tc := range ringLedgerCases {
			b.WriteString(ringLedger(t, tc.name, tc.deviate))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, sec := range strings.Split(string(raw), "== ")[1:] {
		name, _, _ := strings.Cut(sec, ":")
		want[name] = "== " + sec
	}
	for _, tc := range ringLedgerCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ringLedger(t, tc.name, tc.deviate); got != want[tc.name] {
				t.Errorf("ledger differs from the golden\n--- got\n%s--- want\n%s", got, want[tc.name])
			}
		})
	}
}
