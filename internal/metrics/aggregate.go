package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Aggregate accumulates service-level measurements across many concurrent
// swaps — the clearing engine's counterpart to the per-run Counters. All
// methods are safe for concurrent use.
type Aggregate struct {
	mu        sync.Mutex
	startedAt time.Time

	offersSubmitted int
	offersCleared   int
	offersRejected  int
	offersShed      int

	swapsStarted  int
	swapsFinished int
	swapsFailed   int
	// swapsSingleLeader and swapsGeneral split swapsFinished by the
	// protocol the swap ran on.
	swapsSingleLeader int
	swapsGeneral      int

	inflight     int
	peakInflight int

	outcomes        map[string]int
	ordersSabotaged int
	deviations      map[string]int

	latencyCount int
	latencySum   time.Duration
	latencyMax   time.Duration
	latencyHist  Histogram

	recovery *RecoveryStats

	reservationConflicts int

	// reverts counts commitment-model reorg reverts by chain name (empty
	// on Instant runs — the field costs nothing unless reorgs happen).
	reverts map[string]int
	// chainDeltas is the per-chain effective Δ (ticks) under a
	// commitment model, set at report time by the engine.
	chainDeltas map[string]int

	// signs is the total ed25519 signature count, set from the keyring
	// meter at snapshot time (not accumulated here).
	signs uint64

	// econ accumulates per-swap capital-lock integrals and bribery
	// extremes (see economics.go).
	econ EconomicsTotals
}

// NewAggregate starts an aggregate; elapsed time (and therefore the /sec
// rates) count from this moment.
func NewAggregate() *Aggregate {
	return &Aggregate{
		startedAt:  time.Now(),
		outcomes:   make(map[string]int),
		deviations: make(map[string]int),
	}
}

// SetStartedAt overrides the epoch elapsed time and the /sec rates are
// measured from. A merge target built at report time (the sharded
// engine's merged report) must inherit the deployment's own start
// instant, or its elapsed collapses to the merge's duration.
func (a *Aggregate) SetStartedAt(t time.Time) {
	a.mu.Lock()
	a.startedAt = t
	a.mu.Unlock()
}

// AddSubmitted records offers entering the intake queue.
func (a *Aggregate) AddSubmitted(n int) {
	a.mu.Lock()
	a.offersSubmitted += n
	a.mu.Unlock()
}

// AddCleared records offers matched into a swap.
func (a *Aggregate) AddCleared(n int) {
	a.mu.Lock()
	a.offersCleared += n
	a.mu.Unlock()
}

// AddRejected records offers the engine refused (invalid, spent asset,
// unmatched at drain).
func (a *Aggregate) AddRejected(n int) {
	a.mu.Lock()
	a.offersRejected += n
	a.mu.Unlock()
}

// AddShed records arrivals dropped by a bounded-intake backstop before
// they ever reached the book.
func (a *Aggregate) AddShed(n int) {
	a.mu.Lock()
	a.offersShed += n
	a.mu.Unlock()
}

// AddSabotaged records orders settled in a swap that carried at least one
// injected deviating party — the adversarially exercised slice of the
// load.
func (a *Aggregate) AddSabotaged(n int) {
	a.mu.Lock()
	a.ordersSabotaged += n
	a.mu.Unlock()
}

// AddDeviation tallies one injected deviation by strategy name.
func (a *Aggregate) AddDeviation(strategy string) {
	a.mu.Lock()
	a.deviations[strategy]++
	a.mu.Unlock()
}

// AddReverted records one commitment-model reorg revert observed by a
// swap run on the named chain.
func (a *Aggregate) AddReverted(chain string) {
	a.mu.Lock()
	if a.reverts == nil {
		a.reverts = make(map[string]int)
	}
	a.reverts[chain]++
	a.mu.Unlock()
}

// SetChainDeltas records the per-chain effective Δ (ticks) for the
// report; called at snapshot time by engines running a commitment model.
func (a *Aggregate) SetChainDeltas(deltas map[string]int) {
	a.mu.Lock()
	a.chainDeltas = deltas
	a.mu.Unlock()
}

// AddReservationConflict records a clearing round deferred because another
// in-flight swap held an asset — the contention the reservation layer
// turns into waiting instead of double-spending.
func (a *Aggregate) AddReservationConflict() {
	a.mu.Lock()
	a.reservationConflicts++
	a.mu.Unlock()
}

// SwapStarted records one swap entering execution and returns the current
// in-flight count.
func (a *Aggregate) SwapStarted() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.swapsStarted++
	a.inflight++
	if a.inflight > a.peakInflight {
		a.peakInflight = a.inflight
	}
	return a.inflight
}

// SwapFinished records one swap leaving execution. failed marks runs that
// errored outright (not protocol aborts, which are counted per outcome);
// singleLeader says which protocol it ran on — the Section 4.6 hashlock
// staircase, or the general hashkey protocol.
func (a *Aggregate) SwapFinished(failed, singleLeader bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight--
	a.swapsFinished++
	if failed {
		a.swapsFailed++
	}
	if singleLeader {
		a.swapsSingleLeader++
	} else {
		a.swapsGeneral++
	}
}

// AddOutcome tallies one order's terminal payoff class and its
// submit-to-settle latency.
func (a *Aggregate) AddOutcome(class string, latency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.outcomes[class]++
	a.latencyCount++
	a.latencySum += latency
	a.latencyHist.Record(latency)
	if latency > a.latencyMax {
		a.latencyMax = latency
	}
}

// RecoveryStats describes one crash recovery: how much log was replayed,
// how the in-flight swaps were resolved, and how long the rebuild took.
type RecoveryStats struct {
	// Replayed is the number of WAL events folded (snapshot events count
	// once, at snapshot time).
	Replayed int `json:"events_replayed"`
	// Resumed and Refunded split the orders that were in flight at the
	// crash: resumed ones re-entered the book, refunded ones settled
	// NoDeal at the recovery tick.
	Resumed  int `json:"orders_resumed"`
	Refunded int `json:"orders_refunded"`
	// WallMs is the wall-clock cost of the whole recovery (read + fold +
	// engine rebuild).
	WallMs float64 `json:"wall_ms"`
}

// SetRecovery attaches crash-recovery stats to the aggregate; they ride
// along in every subsequent Snapshot.
func (a *Aggregate) SetRecovery(rs RecoveryStats) {
	a.mu.Lock()
	cp := rs
	a.recovery = &cp
	a.mu.Unlock()
}

// SetSigns records the total ed25519 signature count (from the keyring's
// sign meter); Snapshot derives signs-per-swap from it. Set, not added:
// the meter is already cumulative.
func (a *Aggregate) SetSigns(n uint64) {
	a.mu.Lock()
	a.signs = n
	a.mu.Unlock()
}

// Merge folds other's counters, outcome maps, latency histogram, and
// Δ-trajectory into a. A sharded engine uses it to assemble one
// service-level report from per-unit aggregates; called once per unit
// in a fixed order after the shards have stopped, so the concatenated
// trajectory is deterministic. Peak concurrency sums (shards peak
// independently — the sum is an upper bound on the true joint peak), and
// the sign count is left untouched: with a shared keyring it is global
// already and the caller sets it once on the merged aggregate.
func (a *Aggregate) Merge(other *Aggregate) {
	other.mu.Lock()
	defer other.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.offersSubmitted += other.offersSubmitted
	a.offersCleared += other.offersCleared
	a.offersRejected += other.offersRejected
	a.offersShed += other.offersShed
	a.swapsStarted += other.swapsStarted
	a.swapsFinished += other.swapsFinished
	a.swapsFailed += other.swapsFailed
	a.swapsSingleLeader += other.swapsSingleLeader
	a.swapsGeneral += other.swapsGeneral
	a.inflight += other.inflight
	a.peakInflight += other.peakInflight
	a.ordersSabotaged += other.ordersSabotaged
	a.reservationConflicts += other.reservationConflicts
	for k, v := range other.outcomes {
		a.outcomes[k] += v
	}
	for k, v := range other.deviations {
		a.deviations[k] += v
	}
	a.latencyCount += other.latencyCount
	a.latencySum += other.latencySum
	if other.latencyMax > a.latencyMax {
		a.latencyMax = other.latencyMax
	}
	a.latencyHist.Merge(&other.latencyHist)
	if other.recovery != nil && a.recovery == nil {
		cp := *other.recovery
		a.recovery = &cp
	}
	for k, v := range other.reverts {
		if a.reverts == nil {
			a.reverts = make(map[string]int)
		}
		a.reverts[k] += v
	}
	for k, v := range other.chainDeltas {
		if a.chainDeltas == nil {
			a.chainDeltas = make(map[string]int)
		}
		a.chainDeltas[k] = v
	}
	a.econ.fold(&other.econ)
}

// RestoredCounts carries the counters a recovered engine inherits from
// its pre-crash life; Restore folds them into a fresh aggregate so the
// post-recovery totals continue the pre-crash series.
type RestoredCounts struct {
	Submitted     int
	Cleared       int
	Rejected      int
	Shed          int
	SwapsStarted  int
	SwapsFinished int
	Sabotaged     int
	Outcomes      map[string]int
	Deviations    map[string]int
}

// Restore seeds the aggregate with pre-crash counters. Latency history
// is deliberately not restorable — wall-clock durations from a previous
// process are meaningless in this one — so restored runs report latency
// over post-recovery settles only.
func (a *Aggregate) Restore(rc RestoredCounts) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.offersSubmitted += rc.Submitted
	a.offersCleared += rc.Cleared
	a.offersRejected += rc.Rejected
	a.offersShed += rc.Shed
	a.swapsStarted += rc.SwapsStarted
	a.swapsFinished += rc.SwapsFinished
	a.ordersSabotaged += rc.Sabotaged
	for k, v := range rc.Outcomes {
		a.outcomes[k] += v
	}
	for k, v := range rc.Deviations {
		a.deviations[k] += v
	}
}

// Throughput is a point-in-time summary of an Aggregate, JSON-ready for
// the benchmark trajectory.
type Throughput struct {
	ElapsedSec      float64 `json:"elapsed_sec"`
	OffersSubmitted int     `json:"offers_submitted"`
	OffersCleared   int     `json:"offers_cleared"`
	OffersRejected  int     `json:"offers_rejected"`
	// OffersShed counts arrivals dropped by the open-loop backstop before
	// intake (reported by the load generator via the engine).
	OffersShed int `json:"offers_shed"`
	// OrdersSettled and OrdersRefunded split the terminal orders into the
	// paper's two happy endings: Deal (the intended swap) and NoDeal (the
	// abort path — every conforming party refunded and kept its asset).
	// Derived from Outcomes; Discount/FreeRide/Underwater (possible only
	// around deviating parties) are counted in neither.
	OrdersSettled  int `json:"orders_settled"`
	OrdersRefunded int `json:"orders_refunded"`
	// OrdersSabotaged counts orders settled in swaps that carried at
	// least one injected deviating party; Deviations breaks the injected
	// deviations down by strategy name.
	OrdersSabotaged int            `json:"orders_sabotaged"`
	Deviations      map[string]int `json:"deviations,omitempty"`
	SwapsStarted    int            `json:"swaps_started"`
	SwapsFinished   int            `json:"swaps_finished"`
	SwapsFailed     int            `json:"swaps_failed"`
	// InFlight and PeakConcurrent count live runs, from dispatch to settle:
	// the engine's live-run gate (MaxLive) bounds them, not Workers.
	InFlight       int `json:"in_flight"`
	PeakConcurrent int `json:"peak_concurrent"`
	// SwapsSingleLeader and SwapsGeneral split SwapsFinished by protocol:
	// components with one leader clear on classic hashlock HTLCs (no
	// signatures), the rest on hashkey Swap contracts. Swaps a recovered
	// engine inherits from its pre-crash life are in neither (the WAL
	// does not record the protocol).
	SwapsSingleLeader int `json:"swaps_single_leader"`
	SwapsGeneral      int `json:"swaps_general"`
	// OffersSubmittedPerSec is intake rate; OffersClearedPerSec is the
	// rate at which offers were matched into swaps. They differ whenever
	// offers are rejected or still pending — reporting both is what makes
	// an overload (intake outrunning clearing) visible.
	OffersSubmittedPerSec float64 `json:"offers_submitted_per_sec"`
	OffersClearedPerSec   float64 `json:"offers_cleared_per_sec"`
	SwapsPerSec           float64 `json:"swaps_per_sec"`
	// Latency fields are float milliseconds: sub-millisecond settles
	// (routine under virtual time) must not truncate to zero.
	AvgLatencyMs  float64        `json:"avg_latency_ms"`
	P50LatencyMs  float64        `json:"p50_latency_ms"`
	P95LatencyMs  float64        `json:"p95_latency_ms"`
	P99LatencyMs  float64        `json:"p99_latency_ms"`
	MaxLatencyMs  float64        `json:"max_latency_ms"`
	Outcomes      map[string]int `json:"outcomes"`
	ResvConflicts int            `json:"reservation_conflicts"`
	// Signs is the total ed25519 signatures produced under keyring
	// identities; SignsPerSwap normalizes by finished swaps — ALL of them,
	// so it averages over both protocols: a single-leader swap signs
	// nothing, a general one |V|·|L| times (one leader sign per secret
	// plus one wrap per chain extension), and a mixed run reads in
	// between. Divide Signs by SwapsGeneral for the per-protocol figure; a
	// drift in that ratio flags a signature-count regression before it
	// shows up as throughput loss.
	Signs        uint64  `json:"signs,omitempty"`
	SignsPerSwap float64 `json:"signs_per_swap,omitempty"`
	// Recovery is present only on engines rebuilt from a durable store.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// Reverts totals commitment-model reorg reverts observed by swap
	// runs; RevertsByChain breaks them down per chain. Absent on Instant
	// runs.
	Reverts        int            `json:"reverts,omitempty"`
	RevertsByChain map[string]int `json:"reverts_by_chain,omitempty"`
	// ChainDeltas is the per-chain effective Δ in ticks (chain Δ plus
	// confirmation depth) under a commitment model. Absent otherwise.
	ChainDeltas map[string]int `json:"chain_deltas,omitempty"`
	// Economics carries the capital-lock integrals, griefing cost, and
	// bribery-safety margin. Absent when the run locked no capital.
	Economics *EconomicsReport `json:"economics,omitempty"`
}

// Snapshot captures the aggregate now.
func (a *Aggregate) Snapshot() Throughput {
	a.mu.Lock()
	defer a.mu.Unlock()
	elapsed := time.Since(a.startedAt).Seconds()
	t := Throughput{
		ElapsedSec:      elapsed,
		OffersSubmitted: a.offersSubmitted,
		OffersCleared:   a.offersCleared,
		OffersRejected:  a.offersRejected,
		OffersShed:      a.offersShed,
		OrdersSettled:   a.outcomes["Deal"],
		OrdersRefunded:  a.outcomes["NoDeal"],
		OrdersSabotaged: a.ordersSabotaged,
		SwapsStarted:    a.swapsStarted,
		SwapsFinished:   a.swapsFinished,
		SwapsFailed:     a.swapsFailed,
		InFlight:        a.inflight,
		PeakConcurrent:  a.peakInflight,
		Outcomes:        make(map[string]int, len(a.outcomes)),
		ResvConflicts:   a.reservationConflicts,
		Signs:           a.signs,

		SwapsSingleLeader: a.swapsSingleLeader,
		SwapsGeneral:      a.swapsGeneral,
	}
	if a.signs > 0 && a.swapsFinished > 0 {
		t.SignsPerSwap = float64(a.signs) / float64(a.swapsFinished)
	}
	if a.recovery != nil {
		cp := *a.recovery
		t.Recovery = &cp
	}
	for k, v := range a.outcomes {
		t.Outcomes[k] = v
	}
	if len(a.deviations) > 0 {
		t.Deviations = make(map[string]int, len(a.deviations))
		for k, v := range a.deviations {
			t.Deviations[k] = v
		}
	}
	if elapsed > 0 {
		t.OffersSubmittedPerSec = float64(a.offersSubmitted) / elapsed
		t.OffersClearedPerSec = float64(a.offersCleared) / elapsed
		t.SwapsPerSec = float64(a.swapsFinished) / elapsed
	}
	if a.latencyCount > 0 {
		// Float milliseconds, not Duration.Milliseconds(): integer
		// truncation reported sub-millisecond latencies as 0.0ms.
		t.AvgLatencyMs = a.latencySum.Seconds() * 1000 / float64(a.latencyCount)
		t.MaxLatencyMs = a.latencyMax.Seconds() * 1000
		t.P50LatencyMs = a.latencyHist.Quantile(0.50).Seconds() * 1000
		t.P95LatencyMs = a.latencyHist.Quantile(0.95).Seconds() * 1000
		t.P99LatencyMs = a.latencyHist.Quantile(0.99).Seconds() * 1000
	}
	if len(a.reverts) > 0 {
		t.RevertsByChain = make(map[string]int, len(a.reverts))
		for k, v := range a.reverts {
			t.RevertsByChain[k] = v
			t.Reverts += v
		}
	}
	if len(a.chainDeltas) > 0 {
		t.ChainDeltas = make(map[string]int, len(a.chainDeltas))
		for k, v := range a.chainDeltas {
			t.ChainDeltas[k] = v
		}
	}
	t.Economics = a.econ.report()
	return t
}

// JSON renders the snapshot as one JSON object.
func (t Throughput) JSON() string {
	b, _ := json.Marshal(t)
	return string(b)
}

// String renders a human-readable multi-line summary.
func (t Throughput) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offers: %d submitted, %d cleared, %d rejected, %d shed\n",
		t.OffersSubmitted, t.OffersCleared, t.OffersRejected, t.OffersShed)
	fmt.Fprintf(&b, "orders: %d settled, %d refunded, %d sabotaged\n",
		t.OrdersSettled, t.OrdersRefunded, t.OrdersSabotaged)
	fmt.Fprintf(&b, "swaps:  %d finished (%d failed; %d single-leader, %d general), peak %d concurrent\n",
		t.SwapsFinished, t.SwapsFailed, t.SwapsSingleLeader, t.SwapsGeneral, t.PeakConcurrent)
	fmt.Fprintf(&b, "rate:   %.1f offers/sec submitted, %.1f offers/sec cleared, %.1f swaps/sec over %.2fs\n",
		t.OffersSubmittedPerSec, t.OffersClearedPerSec, t.SwapsPerSec, t.ElapsedSec)
	fmt.Fprintf(&b, "latency: avg %.2fms, p50 %.2fms, p95 %.2fms, p99 %.2fms, max %.2fms\n",
		t.AvgLatencyMs, t.P50LatencyMs, t.P95LatencyMs, t.P99LatencyMs, t.MaxLatencyMs)
	if t.Signs > 0 {
		fmt.Fprintf(&b, "signs:  %d total, %.2f per swap\n", t.Signs, t.SignsPerSwap)
	}
	if r := t.Recovery; r != nil {
		fmt.Fprintf(&b, "recovery: %d events replayed, %d orders resumed, %d refunded, %.1fms wall\n",
			r.Replayed, r.Resumed, r.Refunded, r.WallMs)
	}
	if t.Reverts > 0 {
		keys := make([]string, 0, len(t.RevertsByChain))
		for k := range t.RevertsByChain {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, t.RevertsByChain[k])
		}
		fmt.Fprintf(&b, "reorgs: %d records reverted (%s)\n", t.Reverts, strings.Join(parts, " "))
	}
	if e := t.Economics; e != nil {
		fmt.Fprintf(&b, "%s\n", e)
	}
	keys := make([]string, 0, len(t.Outcomes))
	for k := range t.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, t.Outcomes[k])
	}
	fmt.Fprintf(&b, "outcomes: %s (reservation conflicts: %d)",
		strings.Join(parts, " "), t.ResvConflicts)
	return b.String()
}
