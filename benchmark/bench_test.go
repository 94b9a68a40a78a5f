package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestWorkloadsProduceDeclaredMetrics runs every workload traced at
// 1/100 size and checks the metric sets against BENCHMARK.json: every
// declared end-to-end metric from every workload, no undeclared metric
// anywhere, and every declared per-layer metric from at least one
// workload (a layer a workload lacks reads 0 on the driver's line).
func TestWorkloadsProduceDeclaredMetrics(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("declared metric %q: bad name", m.Name)
		}
		if declared[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		declared[m.Name] = true
	}
	all := workloads()
	if got, want := len(all), len(spec.Workloads); got != want {
		t.Fatalf("harness has %d workloads, %s declares %d", got, specFile, want)
	}
	opt := options{seed: 7, trace: true, scale: 0.01, scratch: t.TempDir()}
	layered := map[string]bool{}
	for i, w := range all {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, %s says %q", i, w.name, specFile, spec.Workloads[i].Name)
		}
		res, err := runWorkload(w, spec, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.Safety) > 0 {
			t.Errorf("%s: safety violations: %v", w.name, res.Safety)
		}
		if res.Attempted < 1 || res.Repeats < w.minRepeats {
			t.Errorf("%s: %d attempted over %d repeats", w.name, res.Attempted, res.Repeats)
		}
		for _, m := range spec.EndToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok || v.Value == 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a non-zero value in %s", w.name, m.Name, v, m.Unit)
			}
		}
		for _, section := range []map[string]metricValue{res.EndToEnd, res.PerLayer} {
			for name, v := range section {
				if !declared[name] {
					t.Errorf("%s: produced undeclared metric %s", w.name, name)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
				layered[name] = true
			}
		}
		for _, traced := range []bool{false, true} {
			line := res.contract(traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s: contract line (traced=%v) has %d metrics, want %d", w.name, traced, len(line.Metrics), len(want))
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s: contract line: %v", w.name, err)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !layered[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", m.Name)
		}
	}
}

func TestSummarize(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: summarize must sort
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		tailPct float64
	}{
		{5, 50},     // too few for any tail: the median stands in
		{99, 50},    // p90 would have 9.9 beyond
		{100, 90},   // exactly ten beyond p90
		{200, 95},   // ten beyond p95
		{999, 95},   // p99 would have 9.99 beyond
		{1000, 99},  // ten beyond p99
		{15000, 99}, // the ladder tops out at p99
	} {
		d := summarize(ramp(tc.n))
		if d.N != tc.n || d.TailPct != tc.tailPct {
			t.Errorf("n=%d: got N=%d tail p%g, want tail p%g", tc.n, d.N, d.TailPct, tc.tailPct)
		}
		if want := float64(tc.n+1) / 2; d.P50 != want {
			t.Errorf("n=%d: median %v, want %v", tc.n, d.P50, want)
		}
		if want := 1 + tc.tailPct/100*float64(tc.n-1); math.Abs(d.Tail-want) > 1e-9 {
			t.Errorf("n=%d: tail %v, want %v", tc.n, d.Tail, want)
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty: %+v", d)
	}
	// 10 9 8 | 7 6 5 | 4 3 2 1
	if got := batchMedians(ramp(10), 3); len(got) != 3 || got[0] != 9 || got[1] != 6 || got[2] != 2.5 {
		t.Errorf("batch medians of 10..1 in 3 batches: %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a: shared time counts once
		{ID: 3, Parent: 0, Name: "c", StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "leaf", StartNs: 15, EndNs: 20},
		{ID: 5, Parent: -1, Name: "root", StartNs: 200, EndNs: 250}, // childless: all self
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": (100 - 50 - 10) + 50, // [10,60] and [90,100] covered
		"a":    30 - 5,
		"b":    30,
		"c":    30,
		"leaf": 5,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "cpu_ms_per_swap", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "swaps_per_s", Better: "higher", Bound: 0.10}
	val := func(values ...float64) metricValue { return metricValue{Value: median(values), Values: values} }
	for _, tc := range []struct {
		name string
		a, b metricValue
		m    metricSpec
		want verdict
	}{
		{"within the bound", val(100, 101, 102), val(104, 105, 106), lower, verdictOK},
		{"better", val(100, 101, 102), val(80, 81, 82), lower, verdictOK},
		{"worse by more than the bound", val(100, 101, 102), val(120, 121, 122), lower, verdictWorse},
		{"throughput fell", val(1000, 1010, 1020), val(800, 810, 820), higher, verdictWorse},
		{"throughput rose", val(1000, 1010, 1020), val(1200, 1210, 1220), higher, verdictOK},
		{"spread wider than the bound", val(80, 100, 130), val(85, 101, 125), lower, verdictUnresolved},
		{"wide spread but every repeat better", val(80, 100, 130), val(40, 50, 65), lower, verdictOK},
		{"exact metric moved", metricValue{Value: 1296}, metricValue{Value: 1297}, metricSpec{Better: "lower"}, verdictWorse},
		{"exact metric held", metricValue{Value: 1296}, metricValue{Value: 1296}, metricSpec{Better: "lower"}, verdictOK},
	} {
		if got := judge(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
