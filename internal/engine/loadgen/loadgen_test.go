package loadgen

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

func vtimeConfig(workers int) engine.Config {
	return engine.Config{
		Workers:       workers,
		ClearInterval: time.Millisecond,
		Tick:          time.Millisecond,
		Delta:         20,
		Seed:          42,
		Parallel:      true,
	}
}

// checkPartyBalance asserts the per-party intake accounting closes: each
// party's own row balances (Offered == Submitted + Shed + Refused holds
// per party, not just in aggregate), and the rows sum back to the run
// totals — no arrival is attributed twice or to nobody.
func checkPartyBalance(t *testing.T, st Stats) {
	t.Helper()
	if len(st.Parties) == 0 {
		t.Fatal("no per-party stats recorded")
	}
	var off, sub, shed, ref int
	for party, ps := range st.Parties {
		if ps.Offered != ps.Submitted+ps.Shed+ps.Refused {
			t.Errorf("party %s accounting leaks: %+v", party, ps)
		}
		off += ps.Offered
		sub += ps.Submitted
		shed += ps.Shed
		ref += ps.Refused
	}
	if off != st.Offered || sub != st.Submitted || shed != st.Shed || ref != st.Refused {
		t.Errorf("party rows sum to %d/%d/%d/%d, run totals %d/%d/%d/%d",
			off, sub, shed, ref, st.Offered, st.Submitted, st.Shed, st.Refused)
	}
}

// TestScheduleDeterministic pins the reproducibility contract: a schedule
// is a pure function of (process, n, rate, tick, seed).
func TestScheduleDeterministic(t *testing.T) {
	procs := []Process{Constant{}, Poisson{}, Burst{Size: 4}, Ramp{}}
	for _, p := range procs {
		a := Schedule(p, 200, 1000, time.Millisecond, 7)
		b := Schedule(p, 200, 1000, time.Millisecond, 7)
		if len(a) != 200 || len(b) != 200 {
			t.Fatalf("%s: bad lengths %d/%d", p.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at %d: %v vs %v", p.Name(), i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: schedule not monotonic at %d", p.Name(), i)
			}
		}
	}
	// A randomized process must actually use its seed.
	a := Schedule(Poisson{}, 200, 1000, time.Millisecond, 7)
	c := Schedule(Poisson{}, 200, 1000, time.Millisecond, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("poisson: different seeds produced identical schedules")
	}
}

// TestScheduleDeterministicOnVirtual replays the same schedule on two
// one-worker virtual schedulers: the fire order and fire ticks must match
// event for event.
func TestScheduleDeterministicOnVirtual(t *testing.T) {
	replay := func(seed int64) []vtime.Ticks {
		s := sched.NewVirtual(1)
		var fired []vtime.Ticks
		schedule := Schedule(Poisson{}, 150, 500, time.Millisecond, seed)
		release := s.Hold()
		for _, at := range schedule {
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		release()
		s.RunUntil(schedule[len(schedule)-1])
		return fired
	}
	a, b := replay(3), replay(3)
	if len(a) != 150 || len(b) != 150 {
		t.Fatalf("fired %d/%d events, want 150", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed fired event %d at %v vs %v", i, a[i], b[i])
		}
	}
}

// TestProfileShapes checks each process produces its characteristic
// arrival pattern.
func TestProfileShapes(t *testing.T) {
	const n, rate = 400, 1000.0
	tick := time.Millisecond // mean gap = 1 tick

	// Constant: arrivals exactly one tick apart.
	c := Schedule(Constant{}, n, rate, tick, 1)
	for i := 1; i < n; i++ {
		if c[i]-c[i-1] != 1 {
			t.Fatalf("constant: gap %v at %d, want 1", c[i]-c[i-1], i)
		}
	}

	// Burst: arrivals cluster — far fewer distinct ticks than arrivals —
	// while the average rate holds (span ≈ n ticks).
	bu := Schedule(Burst{Size: 8}, n, rate, tick, 1)
	distinct := 1
	for i := 1; i < n; i++ {
		if bu[i] != bu[i-1] {
			distinct++
		}
	}
	if distinct > n/4 {
		t.Errorf("burst: %d distinct ticks for %d arrivals — not clustering", distinct, n)
	}
	if span := bu[n-1] - bu[0]; span < vtime.Ticks(n/2) || span > vtime.Ticks(2*n) {
		t.Errorf("burst: span %v ticks for %d arrivals at 1/tick — average rate not preserved", span, n)
	}

	// Ramp 0.2→2.0: the first quarter must be sparser than the last, and
	// the normalization must hold the configured average rate — total
	// span ≈ n ticks at one offer/tick (the unnormalized harmonic-mean
	// schedule would span ~28% longer).
	ra := Schedule(Ramp{}, n, rate, tick, 1)
	firstQuarter := ra[n/4] - ra[0]
	lastQuarter := ra[n-1] - ra[3*n/4]
	if firstQuarter <= lastQuarter {
		t.Errorf("ramp: first-quarter span %v not sparser than last-quarter %v", firstQuarter, lastQuarter)
	}
	if span := float64(ra[n-1] - ra[0]); span < 0.95*n || span > 1.05*n {
		t.Errorf("ramp: span %.0f ticks for %d arrivals at 1/tick — average rate not preserved", span, n)
	}
}

func TestParseProfile(t *testing.T) {
	good := map[string]string{
		"constant":   "constant",
		"poisson":    "poisson",
		"burst":      "burst:8",
		"burst:16":   "burst:16",
		"ramp":       "ramp:0.2:2",
		"ramp:0.5:4": "ramp:0.5:4",
	}
	for in, want := range good {
		p, err := ParseProfile(in)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("ParseProfile(%q).Name() = %q, want %q", in, p.Name(), want)
		}
	}
	for _, in := range []string{
		"uniform", "burst:0", "burst:x", "burst:4:5", "ramp:1", "ramp:0:2",
		"poisson:42", "constant:1", "ramp:nan:2", "ramp:inf:1", "ramp:1:+Inf",
	} {
		if _, err := ParseProfile(in); err == nil {
			t.Errorf("ParseProfile(%q): want error", in)
		}
	}
}

// TestOpenLoadVirtualTime is the end-to-end open-loop acceptance: a
// Poisson stream under virtual time clears completely, and the latency
// percentiles are non-zero even though every settle is sub-millisecond —
// the truncation bug this PR fixes would have zeroed them.
func TestOpenLoadVirtualTime(t *testing.T) {
	rep, err := RunOpenLoad(vtimeConfig(8), Config{
		Offers:    36,
		Rate:      4000,
		Process:   Poisson{},
		PartyPool: 4,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Load.Submitted != rep.Load.Offered || rep.Load.Shed != 0 || rep.Load.Refused != 0 {
		t.Fatalf("load stats: %+v", rep.Load)
	}
	if rep.SwapsFinished != 12 || rep.SwapsFailed != 0 {
		t.Fatalf("report: finished %d failed %d, want 12/0", rep.SwapsFinished, rep.SwapsFailed)
	}
	if rep.OffersCleared != rep.Load.Submitted {
		t.Fatalf("cleared %d of %d submitted", rep.OffersCleared, rep.Load.Submitted)
	}
	if rep.P50LatencyMs <= 0 || rep.P95LatencyMs <= 0 || rep.P99LatencyMs <= 0 {
		t.Fatalf("zeroed percentiles: p50=%v p95=%v p99=%v",
			rep.P50LatencyMs, rep.P95LatencyMs, rep.P99LatencyMs)
	}
	if rep.AvgLatencyMs <= 0 || rep.MaxLatencyMs < rep.P99LatencyMs {
		t.Fatalf("latency summary inconsistent: avg=%v max=%v p99=%v",
			rep.AvgLatencyMs, rep.MaxLatencyMs, rep.P99LatencyMs)
	}
	if rep.Profile != "poisson" || rep.OfferedRate != 4000 {
		t.Fatalf("report labels: %q %v", rep.Profile, rep.OfferedRate)
	}
}

// TestOpenLoadRealScheduler smokes the wall-clock path: a small constant
// stream on the real scheduler clears with sane accounting.
func TestOpenLoadRealScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load")
	}
	ecfg := engine.Config{
		Workers:       4,
		ClearInterval: time.Millisecond,
		Tick:          time.Millisecond,
		Delta:         15,
		Seed:          42,
	}
	rep, err := RunOpenLoad(ecfg, Config{Offers: 9, Rate: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwapsFinished != 3 || rep.SwapsFailed != 0 {
		t.Fatalf("report: %+v", rep.Throughput)
	}
	if rep.Load.Submitted != 9 {
		t.Fatalf("load stats: %+v", rep.Load)
	}
}

// TestOpenLoadShedsInsteadOfGrowing pins the bounded-intake backstop: a
// flood far beyond the shed threshold must shed (not book) the excess,
// and the engine still drains clean.
func TestOpenLoadShedsInsteadOfGrowing(t *testing.T) {
	rep, err := RunOpenLoad(vtimeConfig(1), Config{
		Offers:     60,
		Rate:       1e6, // effectively simultaneous arrivals
		MaxPending: 4,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Load
	if st.Shed == 0 {
		t.Fatalf("no shedding under flood: %+v", st)
	}
	if st.Submitted+st.Shed+st.Refused != st.Offered {
		t.Fatalf("intake accounting leaks: %+v", st)
	}
	if st.Submitted == 0 {
		t.Fatalf("everything shed: %+v", st)
	}
	if rep.InFlight != 0 || rep.SwapsFailed != 0 {
		t.Fatalf("engine did not drain clean: %+v", rep.Throughput)
	}
	checkPartyBalance(t, st)
}

// TestRampDegenerateBounds pins ramp's edge cases: from==to must
// degenerate to the constant profile exactly (the normalization's
// to==from branch), and the parser must accept it.
func TestRampDegenerateBounds(t *testing.T) {
	const n, rate = 200, 1000.0
	tick := time.Millisecond
	flat := Schedule(Ramp{From: 1, To: 1}, n, rate, tick, 3)
	want := Schedule(Constant{}, n, rate, tick, 3)
	for i := range flat {
		if flat[i] != want[i] {
			t.Fatalf("ramp:1:1 diverged from constant at %d: %v vs %v", i, flat[i], want[i])
		}
	}
	// Degenerate bounds other than 1 still hold the configured rate.
	for _, v := range []float64{0.5, 2} {
		s := Schedule(Ramp{From: v, To: v}, n, rate, tick, 3)
		if span := float64(s[n-1] - s[0]); span < 0.95*n || span > 1.05*n {
			t.Errorf("ramp:%g:%g span %.0f ticks for %d arrivals — rate not preserved", v, v, span, n)
		}
	}
	p, err := ParseProfile("ramp:1:1")
	if err != nil {
		t.Fatalf("ParseProfile(ramp:1:1): %v", err)
	}
	if p.Name() != "ramp:1:1" {
		t.Fatalf("name %q", p.Name())
	}
}

// TestBurstLargerThanMaxPending floods whole bursts past the shed
// threshold: a burst bigger than MaxPending must shed its overflow
// ring-granularly (no partial rings stranded in the book), keep the
// accounting closed, and still drain clean.
func TestBurstLargerThanMaxPending(t *testing.T) {
	rep, err := RunOpenLoad(vtimeConfig(2), Config{
		Offers:     90,
		Rate:       4000,
		Process:    Burst{Size: 30}, // 30 back-to-back arrivals per burst
		MaxPending: 6,               // far below one burst
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Load
	if st.Shed == 0 {
		t.Fatalf("burst of 30 against MaxPending 6 shed nothing: %+v", st)
	}
	if st.Submitted+st.Shed+st.Refused != st.Offered {
		t.Fatalf("intake accounting leaks: %+v", st)
	}
	if st.Submitted == 0 {
		t.Fatalf("everything shed: %+v", st)
	}
	// Shedding is ring-granular: whatever was submitted must have cleared
	// into whole swaps, not lingered as unmatched fragments.
	if rep.InFlight != 0 || rep.SwapsFailed != 0 {
		t.Fatalf("engine did not drain clean: %+v", rep.Throughput)
	}
	// The engine's own counters carry the shed total (NoteShed wiring).
	if rep.OffersShed != st.Shed {
		t.Fatalf("engine counted %d shed, generator %d", rep.OffersShed, st.Shed)
	}
	checkPartyBalance(t, st)
}

// TestZeroRateRejected pins the zero- and negative-rate contract: the
// generator refuses them instead of dividing by zero into an infinite
// schedule.
func TestZeroRateRejected(t *testing.T) {
	e := engine.New(vtimeConfig(1))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Stop(ctx)
	}()
	for _, rate := range []float64{0, -100, math.Inf(1), math.NaN()} {
		if _, err := Run(context.Background(), e, Config{Offers: 3, Rate: rate, Seed: 1}); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	// Zero offers is refused the same way.
	if _, err := Run(context.Background(), e, Config{Offers: 0, Rate: 100, Seed: 1}); err == nil {
		t.Error("zero offers accepted")
	}
}

// TestRunContextCancel checks a cancelled load stops scheduling and
// reports the partial stats instead of hanging.
func TestRunContextCancel(t *testing.T) {
	e := engine.New(engine.Config{
		Workers: 2, ClearInterval: time.Millisecond,
		Tick: time.Millisecond, Delta: 15, Seed: 1,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, e, Config{Offers: 3000, Rate: 10, Seed: 1}) // 5-minute schedule
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	drainCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := e.Stop(drainCtx); err != nil {
		t.Fatalf("Stop after cancel: %v", err)
	}
}

// TestCancelledRunBalancesAccounting pins the aborted-run invariant:
// arrivals whose timers never fire — the schedule was cancelled under
// them — are counted as refused, so Offered == Submitted + Shed +
// Refused holds on every exit path, not just clean completions.
func TestCancelledRunBalancesAccounting(t *testing.T) {
	ecfg := engine.Config{
		Workers:       2,
		ClearInterval: time.Millisecond,
		Tick:          time.Millisecond,
		Delta:         20,
		Seed:          42,
	}
	e := engine.New(ecfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Stop(ctx)
	}()

	// A real-time schedule spread over ~10s of wall clock, cancelled
	// before it starts: almost every arrival timer is stopped unfired.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Run(ctx, e, Config{Offers: 30, Rate: 3, Seed: 9})
	if err == nil {
		t.Fatalf("cancelled run returned nil error")
	}
	if st.Offered == 0 {
		t.Fatalf("no offers generated")
	}
	if got := st.Submitted + st.Shed + st.Refused; got != st.Offered {
		t.Errorf("accounting leak on cancel: offered %d != submitted %d + shed %d + refused %d",
			st.Offered, st.Submitted, st.Shed, st.Refused)
	}
	if st.Refused == 0 {
		t.Errorf("cancelled schedule counted no refusals (submitted=%d shed=%d)", st.Submitted, st.Shed)
	}
	// The balance must hold per party on the abort path too: the cancel
	// sweep attributes every unfired arrival to its own party.
	checkPartyBalance(t, st)
}

// TestFloodOffersInterleave pins the flood generator's stream shape:
// FloodFactor extra rings from a FloodParties-sized identity pool ride
// on every organic ring, every flood identity carries the reserved
// prefix, the organic budget is still met, and no organic party name
// collides with the flood pool.
func TestFloodOffersInterleave(t *testing.T) {
	cfg := Config{Offers: 30, RingMin: 3, RingMax: 3, FloodFactor: 2, FloodParties: 3, Seed: 11}
	s := buildOffers(cfg.withDefaults())
	offers, ringOf := s.offers, s.ringOf
	if len(offers) != len(ringOf) {
		t.Fatalf("ring map %d entries for %d offers", len(ringOf), len(offers))
	}
	organic, flood := 0, 0
	groups := make(map[string]bool)
	for _, o := range offers {
		if strings.HasPrefix(string(o.Party), engine.FloodPartyPrefix) {
			flood++
			// "flood<G>-p<I>" → group identity "flood<G>".
			name := string(o.Party)
			groups[name[:strings.Index(name, "-")]] = true
			if !strings.HasPrefix(string(o.Give[0].To), engine.FloodPartyPrefix) {
				t.Fatalf("flood offer gives to organic party: %+v", o)
			}
		} else {
			organic++
		}
	}
	if organic < cfg.Offers || organic >= cfg.Offers+cfg.RingMax {
		t.Fatalf("organic budget: %d offers for budget %d", organic, cfg.Offers)
	}
	// Fixed 3-rings: 2 flood rings per organic ring means exactly 2× the
	// organic offer count is flood traffic.
	if flood != 2*organic {
		t.Fatalf("flood offers %d, want %d (factor 2 of %d organic)", flood, 2*organic, organic)
	}
	if len(groups) != cfg.FloodParties {
		t.Fatalf("flood identities drawn from %d groups, want %d: %v", len(groups), cfg.FloodParties, groups)
	}
	// FloodFactor 0 must leave the classic stream untouched.
	cfg.FloodFactor = 0
	plain := buildOffers(cfg.withDefaults()).offers
	classic := buildOffers(Config{Offers: 30, RingMin: 3, RingMax: 3, Seed: 11}.withDefaults()).offers
	if len(plain) != len(classic) {
		t.Fatalf("factor-0 stream length %d, classic %d", len(plain), len(classic))
	}
	for i := range plain {
		if plain[i].Party != classic[i].Party {
			t.Fatalf("factor-0 stream diverged from classic at %d", i)
		}
	}
}

// TestFairShedProtectsOrganicParties is the fair-shedding policy's unit
// witness: a flood from a small reused identity pool against a tiny book
// budget, with per-party fair shedding on, must land its sheds on the
// flooders at a strictly higher rate than on the organic parties — the
// flooders hold the book, so they are the ones at quota.
func TestFairShedProtectsOrganicParties(t *testing.T) {
	rep, err := RunOpenLoad(vtimeConfig(1), Config{
		Offers:       24,
		Rate:         1e6, // effectively simultaneous arrivals
		MaxPending:   4,
		FairShed:     true,
		FloodFactor:  3,
		FloodParties: 2,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Load
	checkPartyBalance(t, st)
	var org, flood PartyStats
	for party, ps := range st.Parties {
		if strings.HasPrefix(party, engine.FloodPartyPrefix) {
			flood.Offered += ps.Offered
			flood.Shed += ps.Shed
		} else {
			org.Offered += ps.Offered
			org.Shed += ps.Shed
		}
	}
	if flood.Offered == 0 || org.Offered == 0 {
		t.Fatalf("stream not mixed: organic %+v flood %+v", org, flood)
	}
	if flood.Shed == 0 {
		t.Fatalf("flood was never shed: %+v (run %+v)", flood, st)
	}
	orgRate := float64(org.Shed) / float64(org.Offered)
	floodRate := float64(flood.Shed) / float64(flood.Offered)
	if orgRate >= floodRate {
		t.Fatalf("fair shedding failed its one job: organic shed rate %.3f (%d/%d) not below flood's %.3f (%d/%d)",
			orgRate, org.Shed, org.Offered, floodRate, flood.Shed, flood.Offered)
	}
	// NoteShedFrom feeds the same engine counter NoteShed does.
	if rep.OffersShed != st.Shed {
		t.Fatalf("engine counted %d shed, generator %d", rep.OffersShed, st.Shed)
	}
	if rep.InFlight != 0 || rep.SwapsFailed != 0 {
		t.Fatalf("engine did not drain clean: %+v", rep.Throughput)
	}
}

// TestOffersMatchLoadShape pins the generated stream to the one offer
// shape, offer by offer: each offer equals engine.LoadOffer (classic),
// engine.LoadOfferOn on its ring's home pool — or, at an odd position of
// a cross ring, the next shard's — (sharded), or engine.FloodOffer (the
// flood rings between organic ones), field for field, and its Give has
// no room to grow into its neighbour's.
func TestOffersMatchLoadShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"classic", Config{Offers: 600, RingMin: 3, RingMax: 5, PartyPool: 16, Seed: 4}},
		{"sharded", Config{Offers: 600, RingMin: 3, RingMax: 3, PartyPool: 16, Shards: 4, CrossRatio: 0.1, Seed: 4}},
		{"flood", Config{Offers: 600, RingMin: 3, RingMax: 4, PartyPool: 16, FloodFactor: 2, Seed: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			s := buildOffers(cfg)
			var pools [][]string
			if cfg.Shards > 1 {
				pools = engine.NewMap(cfg.Shards).Pools(4)
			}
			// Organic ring r is followed by FloodFactor flood rings.
			per := 1 + cfg.FloodFactor
			rings, crosses := 0, 0
			for start := 0; start < len(s.offers); rings++ {
				ring := int(s.ringOf[start])
				size := 1
				for start+size < len(s.offers) && int(s.ringOf[start+size]) == ring {
					size++
				}
				if size < cfg.RingMin || size > cfg.RingMax {
					t.Fatalf("ring %d has %d offers, want %d..%d", ring, size, cfg.RingMin, cfg.RingMax)
				}
				cross := false
				if pools != nil {
					next := pools[(ring+1)%cfg.Shards]
					cross = s.offers[start+1].Give[0].Chain == next[(ring+1)%len(next)]
				}
				if cross {
					crosses++
				}
				for i := 0; i < size; i++ {
					var want core.Offer
					switch {
					case ring%per != 0:
						floodRing := ring/per*cfg.FloodFactor + ring%per - 1
						want = engine.FloodOffer(ring, i, size, floodRing%cfg.FloodParties)
					case pools != nil:
						pool := pools[ring%cfg.Shards]
						if cross && i%2 == 1 {
							pool = pools[(ring+1)%cfg.Shards]
						}
						want = engine.LoadOfferOn(ring, i, size, ring%cfg.PartyPool, pool[(ring+i)%len(pool)])
					default:
						want = engine.LoadOffer(ring, i, size, ring%cfg.PartyPool)
					}
					got := s.offers[start+i]
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ring %d offer %d:\n got %+v\nwant %+v", ring, i, got, want)
					}
					if cap(got.Give) != 1 {
						t.Fatalf("ring %d offer %d: Give has capacity %d, want 1", ring, i, cap(got.Give))
					}
				}
				start += size
			}
			if pools != nil && (crosses == 0 || crosses > rings/4) {
				t.Errorf("%d of %d rings cross shards at CrossRatio %.2f", crosses, rings, cfg.CrossRatio)
			}
		})
	}
}

// closingTarget is a countingTarget that closes its scheduler from
// inside its closeAt-th Submit, under the run (against Run's contract),
// and reports on closed once the close is done.
type closingTarget struct {
	countingTarget
	closeAt int64
	closed  chan struct{}
}

func (c *closingTarget) Submit(o core.Offer) (engine.OrderID, error) {
	if c.submitted.Add(1) == c.closeAt {
		// The hold keeps the dispatcher from starting another batch, and
		// Close, which waits for the dispatcher running this Submit,
		// stops it for good.
		c.v.Acquire()
		go func() { c.v.Close(); close(c.closed) }()
	}
	return 0, nil
}

// TestRunCancelAfterSchedulerClose pins Run's abort path when the
// target's scheduler closes mid-run: the arrivals it never fires are
// still queued, so the cancel sweep stops them, the wait group reaches
// zero, and Run returns ctx.Err() at once, not after its 5 s grace, and
// leaves no goroutine behind.
func TestRunCancelAfterSchedulerClose(t *testing.T) {
	base := runtime.NumGoroutine()
	tgt := &closingTarget{countingTarget: countingTarget{v: sched.NewVirtual(1)}, closeAt: 100, closed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-tgt.closed:
			cancel()
		case <-ctx.Done():
		}
	}()
	begin := time.Now()
	st, err := Run(ctx, tgt, Config{Offers: 3000, Rate: 1000, Process: Poisson{}, PartyPool: 64, Seed: 5})
	if took := time.Since(begin); err != context.Canceled || took > time.Second {
		t.Fatalf("Run returned %v after %v, want context.Canceled well inside the 5 s grace", err, took)
	}
	if st.Submitted != int(tgt.submitted.Load()) || st.Submitted+st.Refused != st.Offered {
		t.Errorf("stats %+v, target took %d", st, tgt.submitted.Load())
	}
	if st.Submitted < 100 || st.Refused == 0 {
		t.Errorf("stats %+v: want the close to leave arrivals unfired", st)
	}
	checkPartyBalance(t, st)
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after Run returned, %d before it", runtime.NumGoroutine(), base)
		}
	}
}
