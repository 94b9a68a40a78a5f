package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is compare's judgement of one workload x metric pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// Rules for the end-to-end numbers BENCHMARK.json cannot bound.
const (
	recoverBound     = 0.20  // recover_ms may worsen by a fifth
	failedShareSlack = 0.002 // failed_share may rise this much, absolute
)

// worsening is how much worse b reads than a, as a share of a (negative
// when b is better), given the metric's direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles of a metric's repeats as
// a share of its median.
func spread(v metricValue) float64 {
	if len(v.Values) < 2 || v.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(v.Values)
	return (q3 - q1) / v.Value
}

// separated reports whether every repeat of b reads better than every
// repeat of a.
func separated(a, b metricValue, better string) bool {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return false
	}
	for _, x := range a.Values {
		for _, y := range b.Values {
			if worsening(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// judge compares one metric between two records under its bound: worse
// when b's median is worse than a's by more than the bound; unresolved
// when either side's own spread is wider than the bound (unless every
// repeat of b beats every repeat of a); ok otherwise.
func judge(a, b metricValue, m metricSpec) verdict {
	if worsening(a.Value, b.Value, m.Better) > m.Bound {
		return verdictWorse
	}
	if max(spread(a), spread(b)) > m.Bound && !separated(a, b, m.Better) {
		return verdictUnresolved
	}
	return verdictOK
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, schema)
	}
	return &rec, nil
}

// compareMain implements `benchmark compare A.json B.json`: per workload
// x end-to-end metric, both medians, the relative change and a verdict,
// using the bounds in BENCHMARK.json. The exit status is non-zero on any
// worse verdict or a higher failed_share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	spec, _, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	for _, side := range []*record{a, b} {
		fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
			side.Env.NProc, side.Env.GOMAXPROCS, side.Env.GoVersion, side.Env.Commit, side.Seed)
	}
	fmt.Printf("%-12s %-22s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "change", "verdict")

	rules := append([]metricSpec(nil), spec.EndToEnd...)
	rules = append(rules,
		metricSpec{Name: "chain_bytes_per_swap", Better: "lower", Bound: 0}, // exact
		metricSpec{Name: "recover_ms", Better: "lower", Bound: recoverBound},
	)
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		for _, m := range rules {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v := judge(va, vb, m)
			if v == verdictWorse {
				bad++
			}
			fmt.Printf("%-12s %-22s %14.4f %14.4f %+8.2f%%  %s\n",
				wa.Name, m.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, v)
		}
		fa, fb := wa.EndToEnd["failed_share"].Value, wb.EndToEnd["failed_share"].Value
		v := verdictOK
		if fb > fa+failedShareSlack {
			v = verdictWorse
			bad++
		}
		fmt.Printf("%-12s %-22s %14.4f %14.4f %+9.4f  %s\n", wa.Name, "failed_share", fa, fb, fb-fa, v)
	}
	if bad > 0 {
		fmt.Printf("%d worse\n", bad)
		return 1
	}
	return 0
}
