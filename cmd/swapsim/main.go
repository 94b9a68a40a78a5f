// Command swapsim runs one atomic cross-chain swap scenario under the
// deterministic simulator and prints the event trace and per-party
// outcomes.
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
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	atomicswap "github.com/go-atomicswap/atomicswap"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func main() {
	var (
		scenario   = flag.String("scenario", "threeway", "swap digraph scenario")
		kindName   = flag.String("kind", "general", "protocol variant")
		adv        = flag.String("adversary", "none", "deviation to inject")
		seed       = flag.Int64("seed", 1, "key-generation seed")
		delta      = flag.Int64("delta", 10, "Δ in ticks")
		broadcast  = flag.Bool("broadcast", false, "enable the broadcast optimization")
		doAudit    = flag.Bool("audit", false, "run ledger fault attribution after the swap")
		concurrent = flag.Bool("concurrent", false, "run with goroutine parties on wall-clock Δ instead of the simulator")
	)
	flag.Parse()
	if err := run(*scenario, *kindName, *adv, *seed, *delta, *broadcast, *doAudit, *concurrent); err != nil {
		fmt.Fprintln(os.Stderr, "swapsim:", err)
		os.Exit(1)
	}
}

func run(scenario, kindName, adv string, seed, delta int64, broadcast, doAudit, concurrent bool) error {
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
	if concurrent {
		return runConcurrent(scenario, setup, adv)
	}
	r := atomicswap.NewRunner(setup, atomicswap.Options{})
	if err := applyAdversary(r, setup, adv); err != nil {
		return err
	}
	res, err := r.Run()
	if err != nil {
		return err
	}

	fmt.Printf("scenario %s  kind=%s  Δ=%d  start=%d  leaders=%v  diam≤%d\n\n",
		scenario, setup.Spec.Kind, setup.Spec.Delta, setup.Spec.Start,
		setup.Spec.Leaders, setup.Spec.DiamBound)
	fmt.Print(res.Log.Render())
	fmt.Println()
	for _, v := range setup.Spec.D.Vertices() {
		fmt.Printf("%-10s %v\n", setup.Spec.PartyOf(v), res.Report.Of(v))
	}
	fmt.Printf("\nall Deal: %v   storage: %d bytes   %s\n",
		res.Report.AllDeal(), res.StorageBytes, res.Counters.String())
	if doAudit {
		faults := atomicswap.Audit(setup.Spec, res)
		if len(faults) == 0 {
			fmt.Println("\naudit: no party failed an enabled transition")
		} else {
			fmt.Println("\naudit — parties at fault (Section 5 bond-slashing candidates):")
			for _, f := range faults {
				fmt.Printf("  %s\n", f)
			}
		}
	}
	return nil
}

// runConcurrent executes the scenario on the goroutine runtime (only
// conforming parties; adversaries are a simulator feature).
func runConcurrent(scenario string, setup *atomicswap.Setup, adv string) error {
	if adv != "none" && adv != "" {
		return fmt.Errorf("-concurrent supports conforming runs only")
	}
	res, err := atomicswap.RunConcurrent(setup, nil, atomicswap.ConcConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s on the concurrent runtime (1 goroutine per party, Δ on the wall clock)\n\n", scenario)
	fmt.Print(res.Log.Render())
	fmt.Println()
	for _, v := range setup.Spec.D.Vertices() {
		fmt.Printf("%-10s %v\n", setup.Spec.PartyOf(v), res.Report.Of(v))
	}
	fmt.Printf("\nall Deal: %v\n", res.Report.AllDeal())
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

func applyAdversary(r *atomicswap.Runner, setup *atomicswap.Setup, spec string) error {
	if spec == "none" || spec == "" {
		return nil
	}
	parts := strings.Split(spec, ":")
	name := parts[0]
	vertex := 0
	if len(parts) > 1 {
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("adversary vertex: %w", err)
		}
		vertex = v
	}
	if vertex < 0 || vertex >= setup.Spec.D.NumVertices() {
		return fmt.Errorf("adversary vertex %d out of range", vertex)
	}
	v := atomicswap.Vertex(vertex)
	switch name {
	case "halt":
		tick := int64(setup.Spec.Start)
		if len(parts) > 2 {
			t, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return fmt.Errorf("halt tick: %w", err)
			}
			tick = t
		}
		r.SetBehavior(v, atomicswap.HaltAt(atomicswap.ConformingFor(setup.Spec), vtime.Ticks(tick)))
	case "silent":
		idx, ok := setup.Spec.LeaderIndex(v)
		if !ok {
			return fmt.Errorf("vertex %d is not a leader", vertex)
		}
		r.SetBehavior(v, atomicswap.SilentLeader(idx))
	case "withhold":
		r.SetBehavior(v, atomicswap.WithholdPublications())
	case "lastmoment":
		if setup.Spec.Kind == atomicswap.KindGeneral {
			r.SetBehavior(v, atomicswap.LastMomentUnlocker())
		} else {
			r.SetBehavior(v, atomicswap.LastMomentRedeemer())
		}
	case "noclaim":
		r.SetBehavior(v, atomicswap.NoClaim())
	case "eager":
		r.SetBehavior(v, atomicswap.EagerPublisher())
	default:
		return fmt.Errorf("unknown adversary %q", name)
	}
	return nil
}
