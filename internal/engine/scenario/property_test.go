package scenario

import (
	"fmt"
	"testing"
)

// TestConformingSafetyMatrix is the property test behind Theorem 4.9's
// uniformity claim, engine-scale: across a seeded matrix of deviation
// rates × arrival profiles, no conforming party's net asset position
// may decrease. Concretely per settled order: a conforming party ends
// in an acceptable class (Deal — traded evenly; NoDeal — refunded
// whole; Discount/FreeRide — strictly ahead), never Underwater (paid
// without being paid), and the ledgers conserve every minted asset.
// Deviants are allowed any fate; that asymmetry is the theorem.
func TestConformingSafetyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix")
	}
	forEachProtocol(t, conformingSafetyMatrix)
}

func conformingSafetyMatrix(t *testing.T, run runner) {
	profiles := []string{"constant", "poisson", "burst:6", "ramp:0.5:2"}
	rates := []float64{0.05, 0.25}
	// Rotate through strategy pairs so the matrix covers the whole
	// taxonomy without running |strategies| × |profiles| × |rates| cells.
	pairs := [][2]string{
		{"silent-leader", "crash"},
		{"withhold-publish", "stall-past-timelock"},
		{"no-claim", "corrupt-publish"},
		{"eager-publish", "premature-reveal"},
	}
	seed := int64(7000)
	for pi, profile := range profiles {
		for _, rate := range rates {
			seed++
			pair := pairs[pi%len(pairs)]
			name := fmt.Sprintf("%s/rate=%.2f/%s+%s", profile, rate, pair[0], pair[1])
			t.Run(name, func(t *testing.T) {
				res, err := run(Scenario{
					Name:    name,
					Seed:    seed,
					Offers:  30,
					Rate:    2000,
					Profile: profile,
					Deviations: []Deviation{
						{Strategy: pair[0], Rate: rate},
						{Strategy: pair[1], Rate: rate},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != 0 {
					t.Fatalf("safety violations at %s: %+v", name, res.Violations)
				}
				if res.Digest.Conservation != "ok" {
					t.Fatalf("conservation: %s", res.Digest.Conservation)
				}
				// Every order reached a terminal state; intake accounting
				// closes.
				for _, o := range res.Digest.Orders {
					if o.Status != "settled" && o.Status != "rejected" {
						t.Fatalf("order %d not terminal: %s", o.ID, o.Status)
					}
				}
				st := res.Load
				if st.Submitted+st.Shed+st.Refused != st.Offered {
					t.Fatalf("intake accounting leaks: %+v", st)
				}
			})
		}
	}
}

// TestSabotageAccounting pins the per-outcome counters: with a heavy
// deviation rate the engine must report sabotaged orders and injected
// deviations, and settled+refunded must cover the conforming outcomes.
func TestSabotageAccounting(t *testing.T) {
	res, err := Run(Scenario{
		Name:    "accounting",
		Seed:    55,
		Offers:  30,
		Rate:    2000,
		Profile: "poisson",
		Deviations: []Deviation{
			{Strategy: "silent-leader", Rate: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.OrdersSabotaged == 0 {
		t.Fatalf("no sabotaged orders at 50%% injection: %+v", rep.Outcomes)
	}
	if rep.Deviations["silent-leader"] == 0 {
		t.Fatalf("no deviations tallied: %v", rep.Deviations)
	}
	if rep.OrdersSettled != rep.Outcomes["Deal"] || rep.OrdersRefunded != rep.Outcomes["NoDeal"] {
		t.Fatalf("settled/refunded counters disagree with outcomes: %+v vs %v",
			rep, rep.Outcomes)
	}
	if rep.OrdersSettled == 0 || rep.OrdersRefunded == 0 {
		t.Fatalf("one-sided outcomes at 50%% injection: %v", rep.Outcomes)
	}
}
