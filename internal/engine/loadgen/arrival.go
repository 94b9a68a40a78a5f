// Package loadgen is the open-loop load harness for the clearing engine:
// instead of pre-loading the book (the closed-loop shape), it drives
// Engine.Submit from a configurable arrival process scheduled on the
// engine's own time scheduler, so latency can be measured under sustained
// intake at a controlled offered rate.
//
// Open-loop means arrivals are decided by the process alone — a slow
// engine does not slow the generator down, it just accumulates a deeper
// book. That is the standard methodology for commit-latency measurement
// (it is immune to coordinated omission: a stalled engine keeps
// receiving, and every queued offer's wait shows up in the percentiles,
// instead of the generator politely pausing and hiding the stall). A
// bounded-intake backstop sheds offers once the pending book exceeds a
// cap, so a hopelessly overloaded engine degrades by visible shedding
// rather than by unbounded memory growth.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Process is an arrival process: it generates the inter-arrival gap
// before each offer, in (possibly fractional) virtual ticks. mean is the
// gap that realizes the configured average rate; i and n locate the
// arrival within the run for shape-varying processes (ramps). Processes
// must be pure functions of (rng, i, n, mean) so a schedule is
// reproducible from its seed.
type Process interface {
	// Name identifies the process in reports and bench JSON.
	Name() string
	// Gap returns the gap in ticks before arrival i of n.
	Gap(rng *rand.Rand, i, n int, mean float64) float64
}

// Constant spaces arrivals exactly one mean gap apart — the
// deterministic baseline profile.
type Constant struct{}

// Name implements Process.
func (Constant) Name() string { return "constant" }

// Gap implements Process.
func (Constant) Gap(_ *rand.Rand, _, _ int, mean float64) float64 { return mean }

// Poisson draws exponentially distributed gaps: the memoryless arrival
// process of independent users, and the standard open-loop workload.
type Poisson struct{}

// Name implements Process.
func (Poisson) Name() string { return "poisson" }

// Gap implements Process.
func (Poisson) Gap(rng *rand.Rand, _, _ int, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Burst clusters arrivals: Size offers arrive back to back, then the
// line goes quiet for Size mean gaps, preserving the configured average
// rate while stressing the clearing loop with synchronized spikes.
type Burst struct {
	// Size is the burst length (default 8).
	Size int
}

// Name implements Process.
func (b Burst) Name() string { return fmt.Sprintf("burst:%d", b.size()) }

func (b Burst) size() int {
	if b.Size <= 0 {
		return 8
	}
	return b.Size
}

// Gap implements Process.
func (b Burst) Gap(_ *rand.Rand, i, _ int, mean float64) float64 {
	if i%b.size() == 0 {
		return float64(b.size()) * mean
	}
	return 0
}

// Ramp sweeps the rate linearly across the run: the instantaneous rate
// at position p ∈ [0,1] follows the shape From+(To-From)·p, normalized
// so the run's average rate is exactly the configured rate (without the
// normalization, index-uniform gap sampling realizes the harmonic — not
// arithmetic — mean of the multipliers and undershoots the configured
// load by ~20% on the default ramp). A 0.2→2.0 ramp starts at a tenth
// of its final rate — the shape that shows where latency diverges as
// offered load climbs through the engine's capacity.
type Ramp struct {
	// From and To set the relative rate shape (defaults 0.2 and 2.0).
	From, To float64
}

// Name implements Process.
func (r Ramp) Name() string {
	from, to := r.bounds()
	return fmt.Sprintf("ramp:%g:%g", from, to)
}

func (r Ramp) bounds() (float64, float64) {
	from, to := r.From, r.To
	if from <= 0 {
		from = 0.2
	}
	if to <= 0 {
		to = 2.0
	}
	return from, to
}

// Gap implements Process.
func (r Ramp) Gap(_ *rand.Rand, i, n int, mean float64) float64 {
	from, to := r.bounds()
	p := 0.0
	if n > 1 {
		p = float64(i) / float64(n-1)
	}
	rate := from + (to-from)*p
	// Normalize by E[1/rate] = ln(to/from)/(to-from) (the continuous
	// limit of the index-uniform sampling) so Σ gaps ≈ n·mean and the
	// realized average rate matches the configured one.
	norm := 1 / from
	if to != from {
		norm = math.Log(to/from) / (to - from)
	}
	return mean / (rate * norm)
}

// ParseProfile resolves a profile flag value to a Process:
// "constant", "poisson", "burst[:size]", or "ramp[:from:to]".
func ParseProfile(s string) (Process, error) {
	parts := strings.Split(strings.TrimSpace(strings.ToLower(s)), ":")
	switch parts[0] {
	case "", "constant", "poisson":
		if len(parts) > 1 {
			return nil, fmt.Errorf("loadgen: %s takes no parameters, got %q", parts[0], s)
		}
		if parts[0] == "poisson" {
			return Poisson{}, nil
		}
		return Constant{}, nil
	case "burst":
		b := Burst{}
		if len(parts) > 2 {
			return nil, fmt.Errorf("loadgen: burst wants burst or burst:n, got %q", s)
		}
		if len(parts) > 1 {
			n, err := strconv.Atoi(parts[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("loadgen: bad burst size %q", parts[1])
			}
			b.Size = n
		}
		return b, nil
	case "ramp":
		r := Ramp{}
		if len(parts) == 3 {
			from, err1 := strconv.ParseFloat(parts[1], 64)
			to, err2 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil || from <= 0 || to <= 0 {
				return nil, fmt.Errorf("loadgen: bad ramp bounds %q", s)
			}
			r.From, r.To = from, to
		} else if len(parts) != 1 {
			return nil, fmt.Errorf("loadgen: ramp wants ramp or ramp:from:to, got %q", s)
		}
		return r, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown profile %q (want constant, poisson, burst[:n], ramp[:from:to])", s)
	}
}

// Schedule materializes the arrival tick of each of n offers at the
// given average rate (offers per second, converted to ticks via the
// engine's tick duration). The schedule is a pure function of its
// arguments: same seed, same schedule — on any scheduler.
func Schedule(p Process, n int, rate float64, tick time.Duration, seed int64) []vtime.Ticks {
	rng := rand.New(rand.NewSource(seed))
	mean := 1.0 / (rate * tick.Seconds())
	out := make([]vtime.Ticks, n)
	at := 0.0
	for i := range out {
		at += p.Gap(rng, i, n, mean)
		out[i] = vtime.Ticks(math.Round(at))
	}
	return out
}
