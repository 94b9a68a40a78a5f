// Command swapsim runs one atomic cross-chain swap scenario under the
// paper's model (conc.Runner: every notification exactly Δ after its chain
// event) and prints the event trace, per-party outcomes and call counters.
//
// Usage:
//
//	swapsim [flags]
//
//	-scenario  threeway | twoleader | cycle:N | clique:N | flower:KxL |
//	           bidir:N | random:N (default "threeway")
//	-kind      general | single-leader | uniform-timeout (default "general")
//	-adversary none | halt:V:TICK | silent:V | withhold:V | lastmoment:V |
//	           noclaim:V | eager:V (V = vertex index)
//	-seed      key-generation seed
//	-delta     Δ in ticks
//	-broadcast enable the Section 4.5 broadcast optimization
//	-audit     run ledger fault attribution after the swap
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	atomicswap "github.com/go-atomicswap/atomicswap"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func main() {
	var (
		scenario  = flag.String("scenario", "threeway", "swap digraph scenario")
		kindName  = flag.String("kind", "general", "protocol variant")
		adv       = flag.String("adversary", "none", "deviation to inject")
		seed      = flag.Int64("seed", 1, "key-generation seed")
		delta     = flag.Int64("delta", 10, "Δ in ticks")
		broadcast = flag.Bool("broadcast", false, "enable the broadcast optimization")
		doAudit   = flag.Bool("audit", false, "run ledger fault attribution after the swap")
	)
	flag.Parse()
	if err := run(os.Stdout, *scenario, *kindName, *adv, *seed, *delta, *broadcast, *doAudit); err != nil {
		fmt.Fprintln(os.Stderr, "swapsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scenario, kindName, adv string, seed, delta int64, broadcast, doAudit bool) error {
	d, err := buildScenario(scenario)
	if err != nil {
		return err
	}
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	setup, err := atomicswap.NewSetup(d, atomicswap.Config{
		Kind:      kind,
		Delta:     vtime.Duration(delta),
		Start:     vtime.Ticks(10 * delta),
		Rand:      rand.New(rand.NewSource(seed)),
		Broadcast: broadcast,
	})
	if err != nil {
		return err
	}
	behaviors, err := parseAdversary(setup, adv)
	if err != nil {
		return err
	}
	r := atomicswap.NewRunner(setup)
	for v, b := range behaviors {
		r.SetBehavior(v, b)
	}
	res, err := r.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario %s  kind=%s  Δ=%d  start=%d  leaders=%v  diam≤%d\n\n",
		scenario, setup.Spec.Kind, setup.Spec.Delta, setup.Spec.Start,
		setup.Spec.Leaders, setup.Spec.DiamBound)
	fmt.Fprint(w, res.Log.Render())
	fmt.Fprintln(w)
	for _, v := range setup.Spec.D.Vertices() {
		fmt.Fprintf(w, "%-10s %v\n", setup.Spec.PartyOf(v), res.Report.Of(v))
	}
	fmt.Fprintf(w, "\nall Deal: %v   storage: %d bytes   %s\n", res.Report.AllDeal(), res.StorageBytes, res.Counters.String())
	if doAudit {
		faults := atomicswap.Audit(setup.Spec, res)
		if len(faults) == 0 {
			fmt.Fprintln(w, "\naudit: no party failed an enabled transition")
		} else {
			fmt.Fprintln(w, "\naudit — parties at fault (Section 5 bond-slashing candidates):")
			for _, f := range faults {
				fmt.Fprintf(w, "  %s\n", f)
			}
		}
	}
	return nil
}

func buildScenario(s string) (*atomicswap.Digraph, error) {
	name, arg, _ := strings.Cut(s, ":")
	atoi := func(def int) (int, error) {
		if arg == "" {
			return def, nil
		}
		return strconv.Atoi(arg)
	}
	switch name {
	case "threeway":
		return atomicswap.ThreeWay(), nil
	case "twoleader":
		return atomicswap.TwoLeaderTriangle(), nil
	case "cycle":
		n, err := atoi(5)
		if err != nil {
			return nil, err
		}
		return atomicswap.Cycle(n), nil
	case "bidir":
		n, err := atoi(5)
		if err != nil {
			return nil, err
		}
		return atomicswap.BidirCycle(n), nil
	case "clique":
		n, err := atoi(4)
		if err != nil {
			return nil, err
		}
		return atomicswap.Clique(n), nil
	case "flower":
		k, petal := 3, 2
		if arg != "" {
			if _, err := fmt.Sscanf(arg, "%dx%d", &k, &petal); err != nil {
				return nil, fmt.Errorf("flower wants K×L, got %q", arg)
			}
		}
		return atomicswap.Flower(k, petal), nil
	case "random":
		n, err := atoi(8)
		if err != nil {
			return nil, err
		}
		return atomicswap.RandomStronglyConnected(n, 0.3, 42), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", s)
	}
}

func parseKind(s string) (atomicswap.Kind, error) {
	switch s {
	case "general":
		return atomicswap.KindGeneral, nil
	case "single-leader":
		return atomicswap.KindSingleLeader, nil
	case "uniform-timeout":
		return atomicswap.KindUniformTimeout, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", s)
	}
}

// parseAdversary resolves -adversary to the one deviating party's behavior
// (nil for "none").
func parseAdversary(setup *atomicswap.Setup, spec string) (map[atomicswap.Vertex]atomicswap.Behavior, error) {
	if spec == "none" || spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	name := parts[0]
	vertex := 0
	if len(parts) > 1 {
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("adversary vertex: %w", err)
		}
		vertex = v
	}
	if vertex < 0 || vertex >= setup.Spec.D.NumVertices() {
		return nil, fmt.Errorf("adversary vertex %d out of range", vertex)
	}
	v := atomicswap.Vertex(vertex)
	var b atomicswap.Behavior
	switch name {
	case "halt":
		tick := int64(setup.Spec.Start)
		if len(parts) > 2 {
			t, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("halt tick: %w", err)
			}
			tick = t
		}
		b = atomicswap.HaltAt(atomicswap.ConformingFor(setup.Spec), vtime.Ticks(tick))
	case "silent":
		idx, ok := setup.Spec.LeaderIndex(v)
		if !ok {
			return nil, fmt.Errorf("vertex %d is not a leader", vertex)
		}
		b = atomicswap.SilentLeader(idx)
	case "withhold":
		b = atomicswap.WithholdPublications()
	case "lastmoment":
		if setup.Spec.Kind == atomicswap.KindGeneral {
			b = atomicswap.LastMomentUnlocker()
		} else {
			b = atomicswap.LastMomentRedeemer()
		}
	case "noclaim":
		b = atomicswap.NoClaim()
	case "eager":
		b = atomicswap.EagerPublisher()
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
	return map[atomicswap.Vertex]atomicswap.Behavior{v: b}, nil
}
