package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tailLadder lists the tail percentiles the harness reports, highest
// first. A percentile is only as good as the samples beyond it, so the
// one reported is the highest that still has tailSamples past it.
var tailLadder = []float64{99, 95, 90}

const tailSamples = 10

// dist summarizes one sample set: the median, plus the highest
// percentile of tailLadder with at least tailSamples samples beyond it
// (the median itself when even p90 has too few). N is the sample count
// behind both numbers.
type dist struct {
	P50     float64
	Tail    float64
	TailPct float64
	N       int
}

// summarize computes the dist of samples (which it sorts in place).
func summarize(samples []float64) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	sort.Float64s(samples)
	d := dist{P50: quantile(samples, 0.5), N: n}
	d.Tail, d.TailPct = d.P50, 50
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= tailSamples {
			d.Tail, d.TailPct = quantile(samples, p/100), p
			break
		}
	}
	return d
}

// quantile reads the q-quantile off an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of a small unsorted set (per-repeat values); does not disturb
// the caller's order, which is the repeat order the record keeps.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// batchMedians cuts values, in order, into n near-equal consecutive
// batches and returns each batch's median.
func batchMedians(values []float64, n int) []float64 {
	n = min(n, len(values))
	out := make([]float64, n)
	for i := range out {
		out[i] = median(values[i*len(values)/n : (i+1)*len(values)/n])
	}
	return out
}

// quartiles returns the first and third quartile of values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.75)
}

// rusage reads the process's resource usage; the zero value on the
// (never observed) failure reads as no CPU and no memory.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// window brackets one timed region: wall clock, process CPU, and the
// allocator/GC counters whose deltas become per-swap costs.
type window struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	gc0  float64
}

// usage is what a closed window measured.
type usage struct {
	wallS      float64
	cpuS       float64
	mallocs    uint64
	allocBytes uint64
	gcCPUS     float64
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.ms0)
	w.gc0 = gcCPUSeconds()
	w.cpu0 = cpuSeconds()
	w.t0 = time.Now()
	return w
}

func (w *window) close() usage {
	wall := time.Since(w.t0).Seconds()
	cpu := cpuSeconds() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wallS:      wall,
		cpuS:       cpu,
		mallocs:    ms.Mallocs - w.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - w.ms0.TotalAlloc,
		gcCPUS:     gcCPUSeconds() - w.gc0,
	}
}

// gcCPUSeconds is the runtime's own estimate of cumulative CPU spent in
// the garbage collector (refreshed at each GC cycle).
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
