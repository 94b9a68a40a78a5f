// Command benchmark is the clearing engine's one measurement harness:
// six named workloads, end-to-end metrics from untraced repeats and
// per-layer metrics from one traced repeat plus direct probes, all in
// one record schema. See README.md.
//
// Usage (from the repository root or from benchmark/):
//
//	benchmark -workload <name> [-seed N] [-seconds S] [-trace 0|1] [-out f.json]
//	benchmark -all [-seed N] [-seconds S] [-trace 0|1] [-out f.json]
//	benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const schema = "atomicswap-benchmark/1"

// scratchDir is where a run keeps WAL directories and trace files,
// relative to the directory BENCHMARK.json lives in.
const scratchDir = ".bench_build"

// environment is the machine record every result carries.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// record is the file -out writes and compare reads.
type record struct {
	Schema    string            `json:"schema"`
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadResult `json:"workloads"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain())
}

func runMain() int {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	all := flag.Bool("all", false, "run every workload")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "seconds of timed repeats per workload (default: BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 adds the traced repeat, the probes and the per-layer metrics")
	out := flag.String("out", "", "also write the full record to this file")
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var selected []workload
	for _, w := range workloads() {
		if *all || w.name == *name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (*all && *name != "") {
		fmt.Fprintf(os.Stderr, "benchmark: want -all or -workload <name>, one of %s\n",
			strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	scratch := filepath.Join(root, scratchDir)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	rec := record{Schema: schema, Env: currentEnv(), Seed: *seed, Seconds: *seconds, Traced: *trace != 0}
	status := 0
	if *all {
		// One process per workload, so that peak RSS and heap state are
		// each workload's own.
		for _, w := range selected {
			res, err := runChild(w.name, scratch)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			rec.Workloads = append(rec.Workloads, res)
			if !res.Correct {
				status = 1
			}
		}
	} else {
		fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d seconds=%g\n",
			rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.GOOS, rec.Env.GOARCH,
			rec.Env.Commit, *seed, *seconds)
		res, err := runWorkload(selected[0], spec, options{
			seed: *seed, seconds: *seconds, trace: rec.Traced, scale: 1, scratch: scratch,
			setupFor: setupBudget, probeFor: probeFor,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, res)
		res.print()
		if !res.Correct {
			status = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !*all {
		// The driver reads the last line: the result as one JSON object.
		line, err := json.Marshal(rec.Workloads[0].contract(rec.Traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

// runChild runs one workload of an -all in a process of its own — this
// binary again, with -workload in place of -all — and reads its record
// back. The child's output passes through.
func runChild(name, scratch string) (*workloadResult, error) {
	out := filepath.Join(scratch, "all-"+name+".json")
	defer os.Remove(out)
	args := []string{"-workload", name, "-out", out}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "all" && f.Name != "out" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	err = cmd.Run()
	rec, readErr := readRecord(out)
	if readErr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return nil, readErr
	}
	// A child that printed its record and then exited 1 found a safety
	// violation; the record says so.
	return rec.Workloads[0], nil
}

// print lists every metric by name with its unit, and the sample count
// behind each percentile.
func (res *workloadResult) print() {
	fmt.Printf("\n== %s: %d timed repeats, %d orders attempted, %d failed (failed_share %.4f), startup %.2f s\n",
		res.Name, res.Repeats, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.StartupS)
	section := func(title string, metrics map[string]metricValue) {
		if len(metrics) == 0 {
			return
		}
		fmt.Printf("-- %s\n", title)
		for _, name := range sortedNames(metrics) {
			m := metrics[name]
			fmt.Printf("  %-36s %16.4f %-12s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Printf(" p%g of n=%d", m.Percentile, m.Samples)
			}
			if len(m.Values) > 1 {
				q1, q3 := quartiles(m.Values)
				fmt.Printf(" median of %d, quartiles %.4f..%.4f", len(m.Values), q1, q3)
			}
			fmt.Println()
		}
	}
	section("end to end (untraced repeats)", res.EndToEnd)
	section("per layer (traced repeat + probes)", res.PerLayer)
	for _, row := range res.Ladder {
		fmt.Printf("  ladder GOMAXPROCS=%d shards=%d: %.1f swaps/s, %.4f cpu-ms/swap, settle p50 %.0f / tail %.0f ticks\n",
			row.GOMAXPROCS, row.Shards, row.SwapsPerS, row.CPUMsPerSwap, row.SettleP50Ticks, row.SettleP99Ticks)
	}
	for _, s := range res.Safety {
		fmt.Printf("  SAFETY VIOLATION: %s\n", s)
	}
	for _, n := range res.Notes {
		fmt.Printf("  operational failure: %s\n", n)
	}
}

// sortedNames lists a section's metric names in a stable order.
func sortedNames(section map[string]metricValue) []string {
	names := make([]string, 0, len(section))
	for name := range section {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
