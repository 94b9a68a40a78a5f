package main

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCheckFlagsAcceptsRunnableRuns: the defaults and the documented
// closed-loop, open-loop, sharded and reorg runs pass.
func TestCheckFlagsAcceptsRunnableRuns(t *testing.T) {
	for _, f := range []flagValues{
		{},
		{adversary: 0.1, conflicts: 0.05},
		{adversary: 1, conflicts: 1},
		{arrivalRate: 2000, fairShed: true, floodFactor: 3},
		{arrivalRate: 2000, shards: 4, crossRatio: 0.1},
		{confirmDepth: 2, reorgRate: 0.02},
	} {
		if err := checkFlags(f); err != nil {
			t.Errorf("%+v refused: %v", f, err)
		}
	}
}

// TestCheckFlagsFractionRange: every fraction flag refuses values outside
// [0, 1] and NaN, naming the flag. Before, NaN switched -adversary off and
// 7 was taken as a fraction.
func TestCheckFlagsFractionRange(t *testing.T) {
	// base makes each flag's other preconditions hold, so only the range
	// can refuse it.
	base := flagValues{shards: 4, confirmDepth: 2}
	set := map[string]func(*flagValues, float64){
		"-adversary":   func(f *flagValues, v float64) { f.adversary = v },
		"-conflicts":   func(f *flagValues, v float64) { f.conflicts = v },
		"-cross-ratio": func(f *flagValues, v float64) { f.crossRatio, f.arrivalRate = v, 1000 },
		"-reorg-rate":  func(f *flagValues, v float64) { f.reorgRate = v },
	}
	for name, apply := range set {
		for _, v := range []float64{-0.1, 1.5, 7, math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := base
			apply(&f, v)
			err := checkFlags(f)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s %v: got %v, want a %s range error", name, v, err, name)
			}
		}
	}
}

// TestCheckFlagsArrivalRate: -arrival-rate must be finite and not
// negative. NaN and a negative rate used to run closed-loop silently, and
// +Inf reached the generator as a zero mean gap.
func TestCheckFlagsArrivalRate(t *testing.T) {
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := checkFlags(flagValues{arrivalRate: v})
		if err == nil || !strings.Contains(err.Error(), "-arrival-rate") {
			t.Errorf("-arrival-rate %v: got %v, want a range error", v, err)
		}
	}
}

// TestCheckFlagsFeatureGates: features that belong to one loop, or need
// another flag, are refused without it.
func TestCheckFlagsFeatureGates(t *testing.T) {
	for _, f := range []flagValues{
		{arrivalRate: 1000, conflicts: 0.05},
		{fairShed: true},
		{floodFactor: 2},
		{crossRatio: 0.1, arrivalRate: 1000},
		{crossRatio: 0.1, shards: 4},
		{reorgRate: 0.1, confirmDepth: 1},
	} {
		if err := checkFlags(f); err == nil {
			t.Errorf("%+v accepted", f)
		}
	}
}

// TestRunClosesItsStore: two -data-dir runs on one directory both exit 0,
// the first starting fresh and the second recovering it with no order
// resumed or refunded, and each leaves no goroutine behind — the store's
// worker among them, which only Close stops.
func TestRunClosesItsStore(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-vtime", "-offers", "60", "-data-dir", dir}
	for i, want := range []string{"", "0 orders resumed, 0 refunded"} {
		before := runtime.NumGoroutine()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d exited %d:\n%s%s", i+1, code, &stdout, &stderr)
		}
		recovered := strings.Contains(stderr.String(), "recovered ")
		if recovered != (want != "") || !strings.Contains(stderr.String(), want) {
			t.Errorf("run %d: stderr %q, want a recovery line with %q", i+1, &stderr, want)
		}
		if !strings.Contains(stdout.String(), "wal: ") {
			t.Errorf("run %d: no wal line in\n%s", i+1, &stdout)
		}
		left := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); left > before && time.Now().Before(deadline); left = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if left > before {
			t.Errorf("run %d left %d goroutines behind", i+1, left-before)
		}
	}
}
