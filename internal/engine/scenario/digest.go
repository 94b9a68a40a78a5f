package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"

	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
)

// Digest is a scenario run's canonical, replay-stable summary. It
// contains only tick-domain and count-valued facts — nothing derived
// from wall-clock time — so two runs of the same Scenario marshal to
// byte-identical JSON. That property is load-bearing: the suite's digests
// are committed under testdata/digests, and TestSuiteDigestsGolden and
// TestReplayLadder compare the bytes.
type Digest struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Profile  string `json:"profile"`

	// Intake accounting, in arrivals.
	Offered   int `json:"offered"`
	Submitted int `json:"submitted"`
	Shed      int `json:"shed"`
	Refused   int `json:"refused"`
	// ShedConforming and ShedCoalition split the shed count by side —
	// flooder identities (engine.FloodPartyPrefix) versus everyone else —
	// the digest-level witness of the fair-shedding contract. Absent on
	// scenarios without a flood coalition, keeping older digests stable.
	ShedConforming int `json:"shed_conforming,omitempty"`
	ShedCoalition  int `json:"shed_coalition,omitempty"`
	// FirstTick and LastTick span the arrival schedule.
	FirstTick int64 `json:"first_tick"`
	LastTick  int64 `json:"last_tick"`

	// Swap and order outcomes.
	SwapsFinished   int            `json:"swaps_finished"`
	SwapsFailed     int            `json:"swaps_failed"`
	Outcomes        map[string]int `json:"outcomes"`
	OrdersSabotaged int            `json:"orders_sabotaged"`
	Deviations      map[string]int `json:"deviations,omitempty"`
	// Reverts counts commitment-model reorg reverts observed by swap
	// runs — a pure function of the seed like everything else here.
	// Absent (0) on Instant runs, so pre-commitment-model digests are
	// byte-identical.
	Reverts int `json:"reverts,omitempty"`

	// ClearRounds counts live clearing rounds (rounds that had work to
	// look at) across the run — both engine lives on a crash run.
	// LastSettleTick is the latest settle tick. Together they are the
	// replay budget the scenario can pin (Scenario.MaxClearRounds /
	// MaxSettleTick).
	ClearRounds    int   `json:"clear_rounds"`
	LastSettleTick int64 `json:"last_settle_tick"`

	// Economics is the run's economic summary — capital-lock integrals,
	// griefing cost, bribery-safety margin. Every field is tick-domain,
	// so it replays byte-identically like the rest of the digest; absent
	// (nil) when no capital ever locked, keeping pre-economics digests
	// stable.
	Economics *metrics.EconomicsReport `json:"economics,omitempty"`

	// Crash summarizes the kill-and-recover step of a CrashTick run.
	Crash *CrashDigest `json:"crash,omitempty"`

	// SettleOrder lists swap tags in settle order — by settle tick, tag
	// breaking ties among same-tick settles.
	SettleOrder []string `json:"settle_order"`
	// Orders is the per-order trace in submission order.
	Orders []OrderDigest `json:"orders"`

	// Conservation is "ok" or the audit failure; Safety is "ok" or the
	// first violation.
	Conservation string `json:"conservation"`
	Safety       string `json:"safety"`
	Violations   int    `json:"violations"`
}

// CrashDigest is the replay-stable face of a crash run's recovery:
// the kill tick, what the WAL replay folded, and how the in-flight
// swaps were split between resume and refund. Wall-clock recovery cost
// lives in Result.Recovery, not here.
type CrashDigest struct {
	Tick     int64 `json:"tick"`
	Replayed int   `json:"events_replayed"`
	Resumed  int   `json:"orders_resumed"`
	Refunded int   `json:"orders_refunded"`
	// Reverts is the pre-crash reorg revert count folded from the WAL
	// (absent on Instant runs).
	Reverts int `json:"reverts,omitempty"`
}

// OrderDigest is one order's replay-stable trace entry.
type OrderDigest struct {
	ID         uint64 `json:"id"`
	Party      string `json:"party"`
	Status     string `json:"status"`
	Class      string `json:"class,omitempty"`
	Swap       string `json:"swap,omitempty"`
	Deviant    string `json:"deviant,omitempty"`
	SubmitTick int64  `json:"submit_tick"`
	SettleTick int64  `json:"settle_tick,omitempty"`
	// Lock is the party's capital-lock integral in this order's swap
	// (token-ticks; engine.OrderSnapshot.LockTickValue). Zero — and
	// absent — for unsettled orders and WAL-restored ones.
	Lock uint64 `json:"lock,omitempty"`
}

// JSON renders the digest as canonical JSON (encoding/json sorts map
// keys, struct fields marshal in declaration order).
func (d Digest) JSON() string {
	b, _ := json.Marshal(d)
	return string(b)
}

// Hash is the digest's sha256 in hex — the one-line replay fingerprint.
func (d Digest) Hash() string {
	sum := sha256.Sum256([]byte(d.JSON()))
	return hex.EncodeToString(sum[:])
}

// buildDigest assembles the canonical summary from the run's parts.
func buildDigest(sc Scenario, load loadgen.Stats, rep metrics.Throughput,
	orders []engine.OrderSnapshot, violations []Violation, conservation string,
	clearRounds int, crash *CrashDigest) Digest {

	d := Digest{
		Scenario:        sc.Name,
		Seed:            sc.Seed,
		Profile:         sc.Profile,
		Offered:         load.Offered,
		Submitted:       load.Submitted,
		Shed:            load.Shed,
		Refused:         load.Refused,
		FirstTick:       int64(load.FirstTick),
		LastTick:        int64(load.LastTick),
		SwapsFinished:   rep.SwapsFinished,
		SwapsFailed:     rep.SwapsFailed,
		Outcomes:        rep.Outcomes,
		OrdersSabotaged: rep.OrdersSabotaged,
		Deviations:      rep.Deviations,
		Reverts:         rep.Reverts,
		ClearRounds:     clearRounds,
		LastSettleTick:  int64(lastSettleTick(orders)),
		Economics:       rep.Economics,
		Crash:           crash,
		Conservation:    conservation,
		Safety:          "ok",
		Violations:      len(violations),
	}
	if _, ok := sc.floodCoalition(); ok {
		for party, ps := range load.Parties {
			if strings.HasPrefix(party, engine.FloodPartyPrefix) {
				d.ShedCoalition += ps.Shed
			} else {
				d.ShedConforming += ps.Shed
			}
		}
	}
	if len(violations) > 0 {
		d.Safety = violations[0].Detail
	}

	type settled struct {
		tick int64
		swap string
	}
	seen := make(map[string]settled)
	d.Orders = make([]OrderDigest, 0, len(orders))
	for _, o := range orders {
		od := OrderDigest{
			ID:         uint64(o.ID),
			Party:      o.Party,
			Status:     o.Status.String(),
			Swap:       o.Swap,
			Deviant:    o.Deviant,
			SubmitTick: int64(o.SubmittedTick),
		}
		if o.Status == engine.StatusSettled {
			od.Class = o.Class.String()
			od.SettleTick = int64(o.SettledTick)
			od.Lock = o.LockTickValue
			if _, ok := seen[o.Swap]; !ok {
				seen[o.Swap] = settled{tick: od.SettleTick, swap: o.Swap}
			}
		}
		d.Orders = append(d.Orders, od)
	}
	swaps := make([]settled, 0, len(seen))
	for _, s := range seen {
		swaps = append(swaps, s)
	}
	sort.Slice(swaps, func(i, j int) bool {
		if swaps[i].tick != swaps[j].tick {
			return swaps[i].tick < swaps[j].tick
		}
		return swaps[i].swap < swaps[j].swap
	})
	d.SettleOrder = make([]string, len(swaps))
	for i, s := range swaps {
		d.SettleOrder[i] = s.swap
	}
	return d
}
