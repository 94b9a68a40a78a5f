package sched

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// spinner is a self-perpetuating owner-storage event: each firing does its
// work and books itself onto the next tick of its stripe until the horizon,
// so a set of them is one batch per tick and nothing is allocated.
type spinner struct {
	ev      Event
	v       *Virtual
	key     uint64
	horizon vtime.Ticks
	hashes  int
	sum     [sha256.Size]byte
}

func (s *spinner) Fire() {
	for i := 0; i < s.hashes; i++ {
		s.sum = sha256.Sum256(s.sum[:])
	}
	if next := s.v.Now() + 1; next <= s.horizon {
		s.v.Schedule(&s.ev, next, 0, s.key, s)
	}
}

// hashesFor reports how many chained SHA-256 blocks take d on this box, on
// one core: CPU work of a known length, so that two goroutines sharing a
// core cannot pass for two cores. The fastest of a few probes, since a
// slow one measured a neighbour.
func hashesFor(d time.Duration) int {
	const probe = 5000
	s := &spinner{hashes: probe, v: NewVirtual(1)}
	defer s.v.Close()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 8; i++ {
		begin := time.Now()
		s.Fire()
		best = min(best, time.Since(begin))
	}
	return int(int64(probe) * int64(d) / int64(best))
}

// BenchmarkDispatch is the layer-level cost of moving an event through the
// scheduler: one worker (no helper) against eight (min(8, GOMAXPROCS) − 1
// helpers), over stripes per batch and callback length. One op is one
// (tick, level) batch of one event a stripe; ns/event and allocs/event are
// the numbers to read, at -cpu 1 for what batching costs and at -cpu 2 and
// up for what helpers buy.
func BenchmarkDispatch(b *testing.B) {
	work := hashesFor(25 * time.Microsecond)
	for _, mode := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=8", 8}} {
		for _, stripes := range []int{1, 4, 64} {
			for _, cb := range []struct {
				name   string
				hashes int
			}{{"empty", 0}, {"25us", work}} {
				b.Run(fmt.Sprintf("%s/stripes=%d/%s", mode.name, stripes, cb.name), func(b *testing.B) {
					v := NewVirtual(mode.workers)
					defer v.Close()
					spinners := make([]spinner, stripes)
					for i := range spinners {
						s := &spinners[i]
						*s = spinner{v: v, key: uint64(i + 1), horizon: vtime.Ticks(b.N), hashes: cb.hashes}
						v.Schedule(&s.ev, 1, 0, s.key, s)
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					v.RunUntil(vtime.Ticks(b.N))
					b.StopTimer()
					runtime.ReadMemStats(&after)
					events := float64(b.N) * float64(stripes)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
				})
			}
		}
	}
}
