package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestCoalitionSuiteReplays is the coalition corpus's replay contract:
// each coalition suite entry, run twice, must produce byte-identical
// digests — coalition draws, flood interleaving, fair-shed decisions,
// and the economics integrals are all pure functions of the seed. CI
// runs this under -race -count=2. Beyond replay stability each entry
// must actually witness its adversary: coalition deviants present, a
// nonzero griefing cost on the board, and (for the flood entry) every
// digest-visible shed landing on the flooders.
func TestCoalitionSuiteReplays(t *testing.T) { forEachProtocol(t, coalitionSuiteReplays) }

func coalitionSuiteReplays(t *testing.T, run runner) {
	for _, name := range []string{"coalition-cartel", "coalition-punishment", "coalition-flood"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			first, err := run(sc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := first.Digest.JSON(), second.Digest.JSON(); a != b {
				t.Fatalf("coalition scenario %q diverged across replays:\nrun1: %s\nrun2: %s", name, a, b)
			}
			if len(first.Violations) != 0 {
				t.Fatalf("violations: %+v", first.Violations)
			}

			d := first.Digest
			coalition := 0
			for dev, n := range d.Deviations {
				if strings.HasPrefix(dev, "coalition-") {
					coalition += n
				}
			}
			if coalition == 0 {
				t.Fatalf("no coalition members drawn (deviations %v) — the scenario witnessed nothing", d.Deviations)
			}
			if d.Economics == nil || d.Economics.GriefingCostTokenTicks == 0 {
				t.Fatalf("griefing cost absent or zero: %+v", d.Economics)
			}
			if d.Economics.GriefedSwaps == 0 {
				t.Fatalf("griefing cost %d with zero griefed swaps", d.Economics.GriefingCostTokenTicks)
			}

			if name == "coalition-flood" {
				// The fair-shedding contract, digest-side: the run shed (the
				// book budget is tiny against 4× traffic), and the sheds hit
				// the flooder identities, not the organic parties. The
				// run-level rate comparison lives in fairShedViolations —
				// asserted empty above — this pins the digest witness.
				if d.ShedCoalition == 0 {
					t.Fatalf("flood run never shed coalition traffic: %+v", d)
				}
				if d.ShedConforming >= d.ShedCoalition {
					t.Fatalf("conforming sheds %d >= coalition sheds %d under fair shedding",
						d.ShedConforming, d.ShedCoalition)
				}
				if d.Shed != d.ShedConforming+d.ShedCoalition {
					t.Fatalf("shed split %d+%d does not cover total %d",
						d.ShedConforming, d.ShedCoalition, d.Shed)
				}
			}
		})
	}
}

// TestCoalitionCrashReplays is the two-life coalition run: the engine is
// killed mid-clearing with a punishment cartel in the stream, recovered
// from the WAL, and the whole arc — coalition draws before and after the
// kill included — must replay byte-identically. Coalition behavior
// factories are rebuilt from the scenario seed in the second life, so
// this is the regression test for "recovered engines re-draw the same
// coalitions".
func TestCoalitionCrashReplays(t *testing.T) {
	sc := Scenario{
		Name:      "coalition-crash",
		Seed:      4242,
		Offers:    48,
		Rate:      2500,
		Profile:   "poisson",
		RingMin:   3,
		RingMax:   5,
		CrashTick: 50,
		Coalitions: []Coalition{
			{Strategy: "punishment", Rate: 0.35},
		},
	}
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.Digest.JSON(), second.Digest.JSON(); a != b {
		t.Fatalf("coalition crash run diverged:\nrun1: %s\nrun2: %s", a, b)
	}
	if len(first.Violations) != 0 {
		t.Fatalf("violations: %+v", first.Violations)
	}

	cd := first.Digest.Crash
	if cd == nil {
		t.Fatal("crash digest missing")
	}
	if cd.Replayed == 0 {
		t.Fatal("recovery replayed no WAL events")
	}
	if cd.Resumed == 0 && cd.Refunded == 0 {
		t.Fatalf("kill at tick %d caught no in-flight swaps: %+v", cd.Tick, cd)
	}
	if n := first.Digest.Deviations["coalition-punishment"]; n == 0 {
		t.Fatalf("no punishment coalition drawn across both lives: %v", first.Digest.Deviations)
	}
	if first.Digest.Economics == nil || first.Digest.Economics.GriefingCostTokenTicks == 0 {
		t.Fatalf("two-life run priced no griefing: %+v", first.Digest.Economics)
	}
}

// TestCoalitionSafetyMatrix is Theorem 4.9 as a seeded matrix: for ANY
// coalition — both strategies, sizes 2 through 5, forming in every swap
// (rate 1.0) — no conforming party may end Underwater. Ring sizes are
// pinned one above the coalition so every swap has exactly one
// conforming victim, the hardest shape (a lone party against a cartel of
// everyone else).
func TestCoalitionSafetyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	forEachProtocol(t, coalitionSafetyMatrix)
}

func coalitionSafetyMatrix(t *testing.T, run runner) {
	for _, strategy := range []string{"punishment", "cartel"} {
		for _, size := range []int{2, 3, 4, 5} {
			strategy, size := strategy, size
			t.Run(fmt.Sprintf("%s-k%d", strategy, size), func(t *testing.T) {
				res, err := run(Scenario{
					Name:    fmt.Sprintf("matrix-%s-%d", strategy, size),
					Seed:    7000 + int64(size),
					Offers:  18,
					Rate:    2000,
					Profile: "poisson",
					RingMin: size + 1,
					RingMax: size + 1,
					Coalitions: []Coalition{
						{Strategy: strategy, Rate: 1.0, Size: size},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != 0 {
					t.Fatalf("conforming party harmed by %s coalition of %d: %+v",
						strategy, size, res.Violations)
				}
				d := res.Digest
				if d.Deviations["coalition-"+strategy] == 0 {
					t.Fatalf("rate-1.0 coalition never formed: %v", d.Deviations)
				}
				if d.Economics == nil || d.Economics.GriefedSwaps == 0 {
					t.Fatalf("every swap carries a coalition yet none griefed: %+v", d.Economics)
				}
				if d.Economics.WorstConformingLoss != 0 {
					t.Fatalf("Theorem 4.9 in value terms: conforming loss %d != 0",
						d.Economics.WorstConformingLoss)
				}
			})
		}
	}
}

// TestEmptyCoalitionGriefsNothing pins the other end of the griefing
// measure: a run with no adversary at all locks plenty of conforming
// capital, and its griefing cost is exactly zero — capital lockup alone
// is not griefing; only lockup forced inside deviant-carrying swaps is.
func TestEmptyCoalitionGriefsNothing(t *testing.T) {
	res, err := Run(Scenario{
		Name:    "empty-coalition",
		Seed:    31337,
		Offers:  24,
		Rate:    2000,
		Profile: "poisson",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %+v", res.Violations)
	}
	e := res.Digest.Economics
	if e == nil || e.ConformingLockTokenTicks == 0 {
		t.Fatalf("conforming run locked no capital: %+v", e)
	}
	if e.GriefingCostTokenTicks != 0 || e.GriefedSwaps != 0 || e.DeviantLockTokenTicks != 0 {
		t.Fatalf("empty coalition griefed: %+v", e)
	}
	if e.BriberySafetyMargin != 0 || e.BestCoalitionGain != 0 || e.WorstConformingLoss != 0 {
		t.Fatalf("empty coalition moved value: %+v", e)
	}
}

// TestGridsHoldSafety runs both parameter grids: every point must finish
// with zero violations — Theorem 4.9 across the whole depth × rate and
// strategy × size × rate surfaces, not only at the suite's pinned points —
// and econ-grid's leading empty-coalition entry must report a griefing
// cost of exactly zero, the baseline every other point is priced against.
func TestGridsHoldSafety(t *testing.T) {
	for _, family := range []string{"reorg-grid", "econ-grid"} {
		grid, err := Family(family, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range grid {
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("%s: violations: %+v", sc.Name, res.Violations)
			}
			if family == "econ-grid" && i == 0 {
				if len(sc.Coalitions) != 0 {
					t.Fatalf("%s: econ-grid must lead with the empty coalition", sc.Name)
				}
				if e := res.Digest.Economics; e == nil || e.GriefingCostTokenTicks != 0 {
					t.Errorf("%s: empty coalition reported a griefing cost: %+v", sc.Name, e)
				}
			}
		}
	}
}

// TestCoalitionValidation rejects malformed coalition entries up front.
func TestCoalitionValidation(t *testing.T) {
	base := func(cos ...Coalition) Scenario {
		return Scenario{Offers: 10, Rate: 100, Coalitions: cos}
	}
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown strategy", base(Coalition{Strategy: "bribery", Rate: 0.2}), "unknown coalition strategy"},
		{"rate above 1", base(Coalition{Strategy: "cartel", Rate: 1.5}), "outside [0,1]"},
		{"rates sum past 1", base(
			Coalition{Strategy: "cartel", Rate: 0.6},
			Coalition{Strategy: "punishment", Rate: 0.6}), "sum"},
		{"two floods", base(
			Coalition{Strategy: "flood", Rate: 0.5},
			Coalition{Strategy: "flood", Rate: 0.5}), "at most one flood"},
		{"flood rate 1", base(Coalition{Strategy: "flood", Rate: 1.0}), "outside (0,1)"},
		{"bad drop", base(Coalition{Strategy: "cartel", Rate: 0.2, Drop: 1.5}), "Drop/Halt"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
