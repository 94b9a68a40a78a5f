package conc

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/sched"
)

var updateOrderGolden = flag.Bool("update-order-golden", false,
	"rewrite testdata/event_order.golden from this build's runs")

// callRecorder wraps a party's behavior and appends one line per callback
// it receives — tick, party, callback, arguments — to the run's shared
// sequence, before handing the callback on.
type callRecorder struct {
	inner core.Behavior
	seq   *callSeq
}

type callSeq struct {
	mu    sync.Mutex
	lines []string
}

func (s *callSeq) add(e core.Env, format string, args ...any) {
	line := fmt.Sprintf("t=%d %s ", int64(e.Now()), e.Party()) + fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.lines = append(s.lines, line)
	s.mu.Unlock()
}

func (r *callRecorder) Init(e core.Env) {
	r.seq.add(e, "Init")
	r.inner.Init(e)
}

func (r *callRecorder) OnContract(e core.Env, arcID int, c chain.Contract) {
	r.seq.add(e, "OnContract arc=%d id=%s", arcID, c.ContractID())
	r.inner.OnContract(e, arcID, c)
}

func (r *callRecorder) OnUnlock(e core.Env, arcID, lockIdx int, key hashkey.Hashkey) {
	r.seq.add(e, "OnUnlock arc=%d lock=%d path=%s", arcID, lockIdx, key.Path)
	r.inner.OnUnlock(e, arcID, lockIdx, key)
}

func (r *callRecorder) OnRedeem(e core.Env, arcID int, secret hashkey.Secret) {
	r.seq.add(e, "OnRedeem arc=%d", arcID)
	r.inner.OnRedeem(e, arcID, secret)
}

func (r *callRecorder) OnBroadcast(e core.Env, lockIdx int, key hashkey.Hashkey) {
	r.seq.add(e, "OnBroadcast lock=%d path=%s", lockIdx, key.Path)
	r.inner.OnBroadcast(e, lockIdx, key)
}

func (r *callRecorder) OnSettled(e core.Env, arcID int, claimed bool) {
	r.seq.add(e, "OnSettled arc=%d claimed=%v", arcID, claimed)
	r.inner.OnSettled(e, arcID, claimed)
}

// orderCase is one golden run: a digraph, the protocol request, and an
// optional deviation.
type orderCase struct {
	name    string
	d       func() *digraph.Digraph
	cfg     core.Config
	deviate func(spec *core.Spec) map[digraph.Vertex]core.Behavior
}

var orderCases = []orderCase{
	{name: "ring-3", d: func() *digraph.Digraph { return graphgen.Cycle(3) }, cfg: core.Config{Kind: core.KindByLeaders}},
	{name: "ring-5", d: func() *digraph.Digraph { return graphgen.Cycle(5) }, cfg: core.Config{Kind: core.KindByLeaders}},
	{name: "flower", d: func() *digraph.Digraph { return graphgen.Flower(2, 3) }, cfg: core.Config{Kind: core.KindByLeaders}},
	{name: "clique-4", d: func() *digraph.Digraph { return graphgen.Clique(4) }, cfg: core.Config{Kind: core.KindByLeaders}},
	{name: "ring-3-broadcast", d: func() *digraph.Digraph { return graphgen.Cycle(3) }, cfg: core.Config{Broadcast: true}},
	{name: "ring-4-silent-leader", d: func() *digraph.Digraph { return graphgen.Cycle(4) }, cfg: core.Config{Kind: core.KindByLeaders},
		deviate: func(spec *core.Spec) map[digraph.Vertex]core.Behavior {
			return map[digraph.Vertex]core.Behavior{spec.Leaders[0]: adversary.SilentLeader(0)}
		}},
}

// recordRun plays one case on a fresh virtual scheduler with the given
// worker count and returns the callback sequence in execution order,
// followed by the trace log in append order.
func recordRun(t *testing.T, tc orderCase, workers int, shared bool) string {
	t.Helper()
	cfg := tc.cfg
	cfg.Tag = "golden"
	cfg.Rand = rand.New(rand.NewSource(11))
	setup, err := core.NewSetup(tc.d(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := setup.Spec
	seq := &callSeq{}
	var deviants map[digraph.Vertex]core.Behavior
	if tc.deviate != nil {
		deviants = tc.deviate(spec)
	}
	behaviors := make(map[digraph.Vertex]core.Behavior, spec.D.NumVertices())
	for v := 0; v < spec.D.NumVertices(); v++ {
		inner := deviants[digraph.Vertex(v)]
		if inner == nil {
			inner = core.ConformingFor(spec)
		}
		behaviors[digraph.Vertex(v)] = &callRecorder{inner: inner, seq: seq}
	}
	sc := sched.NewVirtual(workers)
	defer sc.Close()
	rc := Config{Scheduler: sc, StartOffset: 25, StripeKey: 7}
	if shared {
		rc.Registry = chain.NewRegistry(sc)
	}
	res, err := Run(setup, behaviors, rc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: kind=%s leaders=%v settle=%d\n", tc.name, spec.Kind, spec.Leaders, int64(res.SettleTick))
	for _, line := range seq.lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString("-- trace\n")
	for _, ev := range res.Log.Events() {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEventOrderGolden pins every party's callback sequence — and with it
// the order of the whole run — against testdata/event_order.golden, which
// was written by the commit before deliveries became coalesced scheduler
// events. One worker or four, private and shared registries must all
// reproduce it: one event serving two parties must serve them in the
// order two events did.
func TestEventOrderGolden(t *testing.T) {
	path := filepath.Join("testdata", "event_order.golden")
	if *updateOrderGolden {
		var b strings.Builder
		for _, tc := range orderCases {
			b.WriteString(recordRun(t, tc, 1, false))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
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
	for _, tc := range orderCases {
		for _, mode := range []struct {
			name    string
			workers int
			shared  bool
		}{
			{"workers=1", 1, false},
			{"workers=1-shared", 1, true},
			{"workers=4", 4, false},
			{"workers=4-shared", 4, true},
		} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				got := recordRun(t, tc, mode.workers, mode.shared)
				if got != want[tc.name] {
					t.Errorf("callback order differs from the golden\n--- got\n%s--- want\n%s", got, want[tc.name])
				}
			})
		}
	}
}
