// Command swapbench runs the full experiment suite — one table per figure
// or quantitative claim of the paper (see DESIGN.md §4) — and prints the
// tables EXPERIMENTS.md records.
//
// Usage:
//
//	swapbench [-only E5[,E9,...]]
//	swapbench -scenario all|reorg-grid|econ-grid|<name> [-scenario-seed N] [-scenario-parallel] [-scenario-shards N]
//
// With -scenario it runs seed-replayable adversarial scenarios (open-
// loop load with injected deviation strategies on the deterministic
// engine) and emits one replay-stable digest JSON line per scenario:
// the same invocation always prints the same bytes, so CI can diff two
// runs to prove determinism. "all" is the built-in suite; reorg-grid
// (confirmation depth × reorg rate) and econ-grid (coalition strategy ×
// size × formation rate) are parameter grids whose digests carry what each
// point costs. See internal/engine/scenario.
//
// Throughput and latency are measured by the harness under benchmark/, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/go-atomicswap/atomicswap/internal/engine/scenario"
	"github.com/go-atomicswap/atomicswap/internal/expt"
)

// runScenarios executes one named scenario family (see scenario.Family)
// deterministically and prints one replay-stable JSON line per run: the canonical digest plus its sha256 fingerprint. Two
// invocations with the same arguments must emit byte-identical output —
// the CI replay job diffs exactly that, and diffs a -scenario-parallel
// run against a plain one too (dispatch helpers are an execution knob,
// not a schedule knob). A safety violation fails the command.
func runScenarios(name string, seedOffset int64, parallel bool, shards int) error {
	scs, err := scenario.Family(name, seedOffset)
	if err != nil {
		return err
	}
	violations := 0
	for _, sc := range scs {
		sc.Parallel = parallel
		sc.ExecShards = shards
		res, err := scenario.Run(sc)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		fmt.Printf("{\"bench\":\"scenario\",\"hash\":%q,\"digest\":%s}\n",
			res.Digest.Hash(), res.Digest.JSON())
		// Where the batches and the signatures ran is the box's business,
		// not the digest's.
		fmt.Fprintf(os.Stderr, "%s: %v\n", sc.Name, res.Dispatch)
		if res.Signing.Signs > 0 {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sc.Name, res.Signing)
		}
		violations += len(res.Violations)
	}
	if violations > 0 {
		return fmt.Errorf("scenarios reported %d safety violations", violations)
	}
	return nil
}

// selectExperiments resolves -only against the experiment index: every
// experiment when only is empty, else the named ones in index order. An ID
// the index does not know is an error that lists the ones it does.
func selectExperiments(only string) ([]expt.Experiment, error) {
	all := expt.All()
	known := make([]string, len(all))
	for i, e := range all {
		known[i] = e.ID
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("-only: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return all, nil
	}
	var picked []expt.Experiment
	for _, e := range all {
		if want[e.ID] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	scenarioFlag := flag.String("scenario", "", "run a deterministic scenario family — 'all' (the built-in suite), 'reorg-grid', 'econ-grid', or one suite entry by name — and emit replay-stable digest JSON")
	scenarioSeed := flag.Int64("scenario-seed", 0, "seed offset applied to every -scenario run (same offset ⇒ byte-identical output)")
	scenarioParallel := flag.Bool("scenario-parallel", false, "run -scenario with dispatch helpers, one a spare core up to the scenario's workers (digests must stay byte-identical; CI diffs plain vs parallel output)")
	scenarioShards := flag.Int("scenario-shards", 0, "run -scenario on a sharded engine with this many shards (0 = the scenario's own shard count; digests of shard-local scenarios must stay byte-identical to 1-shard runs — CI diffs them)")
	flag.Parse()

	if *scenarioFlag != "" {
		if err := runScenarios(*scenarioFlag, *scenarioSeed, *scenarioParallel, *scenarioShards); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	experiments, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := 0
	for _, e := range experiments {
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(tbl.Render())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
