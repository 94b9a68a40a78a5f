package metrics

import (
	"math"
	"math/bits"
	"time"
)

// Histogram is an HDR-style latency histogram: values are bucketed
// logarithmically with histSubBits bits of sub-bucket resolution, so any
// recorded value lands in a bucket whose width is at most ~3% of the
// value. That bounds the relative error of every reported quantile at
// ~3% while the whole structure stays a fixed-size counter array — no
// per-sample storage, O(1) record, O(buckets) quantile.
//
// Values are recorded in nanoseconds. The zero value is ready to use.
// Histogram is not internally synchronized; Aggregate records into it
// under its own mutex.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	min    int64
	max    int64
}

const (
	// histSubBits is the sub-bucket resolution: 2^histSubBits linear
	// sub-buckets per power of two, i.e. bucket width ≤ value/32 (~3%).
	histSubBits  = 6
	histSubCount = 1 << histSubBits // 64
	histHalf     = histSubCount / 2 // 32
	// histMaxExp covers every positive int64 nanosecond value (bit
	// lengths up to 63 ⇒ exponents up to 63-histSubBits).
	histMaxExp  = 64 - histSubBits
	histBuckets = histSubCount + histMaxExp*histHalf
)

// histIndex maps a non-negative value to its bucket.
func histIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits // ≥ 1 here
	// v>>exp is in [histHalf, histSubCount): the top histSubBits bits.
	return histSubCount + (exp-1)*histHalf + int(v>>uint(exp)) - histHalf
}

// histValue returns the midpoint of a bucket — the value Quantile
// reports for samples that landed in it.
func histValue(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	exp := uint((idx-histSubCount)/histHalf + 1)
	mant := int64((idx-histSubCount)%histHalf + histHalf)
	lower := mant << exp
	return lower + int64(1)<<(exp-1) // + half the bucket width
}

// Record adds one observation. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
}

// Merge folds other's observations into h: bucket counts add, min/max
// widen. The sharded engine uses it to combine per-shard latency
// histograms into one service-level distribution (exact at bucket
// granularity — the buckets of both histograms are identical).
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Max reports the exact largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the value at quantile q in [0, 1]: the bucket
// midpoint where the cumulative count first reaches q·count, clamped to
// the exact observed [min, max] so tails never overshoot reality. An
// empty histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: ceil, not floor — a fractional q·count must round to
	// the next sample up, or the tail percentile silently excludes the
	// worst observations (p99 of 96 samples is rank 96, not 95).
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			v := histValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}
