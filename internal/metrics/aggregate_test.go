package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSnapshotSubMillisecondLatency is the truncation regression: a 250µs
// settle latency must report as 0.25ms, not 0. The old code went through
// Duration.Milliseconds(), whose integer truncation zeroed every
// sub-millisecond run — exactly the resolution virtual-time loads live at.
func TestSnapshotSubMillisecondLatency(t *testing.T) {
	a := NewAggregate()
	a.AddOutcome("Deal", 250*time.Microsecond)
	s := a.Snapshot()
	if math.Abs(s.AvgLatencyMs-0.25) > 1e-9 {
		t.Errorf("AvgLatencyMs = %v, want 0.25", s.AvgLatencyMs)
	}
	if math.Abs(s.MaxLatencyMs-0.25) > 1e-9 {
		t.Errorf("MaxLatencyMs = %v, want 0.25", s.MaxLatencyMs)
	}
	if s.P50LatencyMs <= 0 || s.P95LatencyMs <= 0 || s.P99LatencyMs <= 0 {
		t.Errorf("percentiles truncated to zero: p50=%v p95=%v p99=%v",
			s.P50LatencyMs, s.P95LatencyMs, s.P99LatencyMs)
	}
	// Percentiles of a single sample are that sample, within bucket error.
	if math.Abs(s.P99LatencyMs-0.25) > 0.25*histRelError {
		t.Errorf("P99LatencyMs = %v, want ~0.25", s.P99LatencyMs)
	}
}

// histRelError is the histogram's documented relative resolution bound.
const histRelError = 0.04

// TestHistogramQuantilesVsBruteForce checks the log-bucketed quantiles
// against an exact sorted-slice computation over several latency-shaped
// distributions.
func TestHistogramQuantilesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() time.Duration{
		// Uniform microseconds-to-milliseconds.
		"uniform": func() time.Duration {
			return time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		},
		// Log-normal-ish: the classic latency shape with a long tail.
		"lognormal": func() time.Duration {
			v := math.Exp(rng.NormFloat64()*1.5 + 11) // ~60µs median
			return time.Duration(v)
		},
		// Bimodal: fast path plus a slow 1% tail.
		"bimodal": func() time.Duration {
			if rng.Float64() < 0.99 {
				return time.Duration(100+rng.Int63n(50)) * time.Microsecond
			}
			return time.Duration(40+rng.Int63n(20)) * time.Millisecond
		},
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			samples := make([]time.Duration, 10000)
			for i := range samples {
				samples[i] = gen()
				h.Record(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
				idx := int(math.Ceil(q*float64(len(samples)))) - 1
				if idx < 0 {
					idx = 0
				}
				exact := samples[idx]
				got := h.Quantile(q)
				relErr := math.Abs(float64(got-exact)) / float64(exact)
				if relErr > histRelError {
					t.Errorf("q=%v: hist %v vs exact %v (rel err %.4f > %.2f)",
						q, got, exact, relErr, histRelError)
				}
			}
			if h.Max() != samples[len(samples)-1] {
				t.Errorf("Max = %v, want exact %v", h.Max(), samples[len(samples)-1])
			}
			if h.Count() != uint64(len(samples)) {
				t.Errorf("Count = %d, want %d", h.Count(), len(samples))
			}
		})
	}
}

// TestHistogramNearestRank pins the rank rounding on fractional q·count:
// with 10 samples, p95 is the nearest-rank 10th sample, not the floored
// 9th — a floor would systematically drop the worst observation from
// small-sample tails.
func TestHistogramNearestRank(t *testing.T) {
	var h Histogram
	for i := 0; i < 9; i++ {
		h.Record(time.Millisecond)
	}
	h.Record(100 * time.Millisecond)
	got := h.Quantile(0.95)
	if got < 90*time.Millisecond {
		t.Errorf("Quantile(0.95) = %v over 9×1ms + 1×100ms, want the 100ms tail sample", got)
	}
	if h.Quantile(0.90) > 2*time.Millisecond {
		t.Errorf("Quantile(0.90) = %v, want ~1ms (rank 9 of 10)", h.Quantile(0.90))
	}
}

func TestHistogramEmptyAndZero(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Record(0)
	h.Record(-time.Second) // negative clamps to zero
	if h.Count() != 2 || h.Quantile(0.99) != 0 {
		t.Errorf("zero-valued histogram: count=%d q99=%v", h.Count(), h.Quantile(0.99))
	}
}

// TestThroughputRateSplit pins the submitted-vs-cleared distinction: the
// old OffersPerSec was computed from cleared offers while its name (and
// the README) said intake rate. Both are now reported, and they must
// track their respective counters.
func TestThroughputRateSplit(t *testing.T) {
	a := NewAggregate()
	a.AddSubmitted(10)
	a.AddCleared(4)
	s := a.Snapshot()
	if s.OffersSubmittedPerSec <= 0 || s.OffersClearedPerSec <= 0 {
		t.Fatalf("rates not populated: %+v", s)
	}
	ratio := s.OffersSubmittedPerSec / s.OffersClearedPerSec
	if math.Abs(ratio-2.5) > 1e-9 {
		t.Errorf("submitted/cleared rate ratio = %v, want 2.5 (10/4)", ratio)
	}
	out := s.String()
	for _, want := range []string{"offers/sec submitted", "offers/sec cleared"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

// TestProtocolSplit pins the per-protocol swap counts: they partition
// SwapsFinished, survive a shard merge, reach the JSON report and the
// one-line summary, and SignsPerSwap stays the average over both.
func TestProtocolSplit(t *testing.T) {
	a, b := NewAggregate(), NewAggregate()
	for i := 0; i < 3; i++ {
		a.SwapStarted()
		a.SwapFinished(false, true)
	}
	for i := 0; i < 2; i++ {
		b.SwapStarted()
		b.SwapFinished(i == 0, false)
	}
	a.Merge(b)
	a.SetSigns(24) // two clique-4 swaps
	s := a.Snapshot()
	if s.SwapsSingleLeader != 3 || s.SwapsGeneral != 2 || s.SwapsFinished != 5 || s.SwapsFailed != 1 {
		t.Fatalf("split %d single-leader + %d general of %d finished (%d failed), want 3 + 2 of 5 (1)",
			s.SwapsSingleLeader, s.SwapsGeneral, s.SwapsFinished, s.SwapsFailed)
	}
	if s.SignsPerSwap != 24.0/5 {
		t.Errorf("SignsPerSwap = %v, want 24 signatures over all 5 swaps", s.SignsPerSwap)
	}
	for _, want := range []string{`"swaps_single_leader":3`, `"swaps_general":2`} {
		if !strings.Contains(s.JSON(), want) {
			t.Errorf("JSON() = %s missing %s", s.JSON(), want)
		}
	}
	if want := "3 single-leader, 2 general"; !strings.Contains(s.String(), want) {
		t.Errorf("String() = %q missing %q", s.String(), want)
	}
}
