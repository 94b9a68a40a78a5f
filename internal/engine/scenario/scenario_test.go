package scenario

import (
	"strings"
	"testing"
)

// mixScenario is the determinism workhorse: open-loop Poisson load with
// five deviation strategies injected, adaptive Δ on, so the digest
// covers intake, clearing, the Δ controller, and the abort paths all at
// once.
func mixScenario(seed int64) Scenario {
	return Scenario{
		Name:          "determinism-mix",
		Seed:          seed,
		Offers:        45,
		Rate:          2500,
		Profile:       "poisson",
		AdaptiveDelta: true,
		Deviations: []Deviation{
			{Strategy: "silent-leader", Rate: 0.12},
			{Strategy: "withhold-publish", Rate: 0.10},
			{Strategy: "crash", Rate: 0.10},
			{Strategy: "stall-past-timelock", Rate: 0.10},
			{Strategy: "no-claim", Rate: 0.08},
		},
	}
}

// TestDeterminism is the replay contract: the same seeded open-loop
// adversarial scenario, run twice, must produce byte-identical digests
// — same intake ticks, same clearing decisions, same Δ trajectory, same
// settle order. Before the scheduler-driven clearing loop this failed:
// rounds fired off a wall-clock ticker, so the round at which each ring
// cleared (and hence every downstream tick) varied run to run. CI runs
// this under -race too, and `go test -run Determinism -count=2`
// additionally replays across process-internal state.
func TestDeterminism(t *testing.T) {
	sc := mixScenario(9001)
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Digest.JSON(), second.Digest.JSON()
	if a != b {
		t.Fatalf("same seed diverged:\nrun1: %s\nrun2: %s", a, b)
	}
	if first.Digest.Hash() != second.Digest.Hash() {
		t.Fatal("digest hashes diverged")
	}

	// The run must actually have exercised the adversarial machinery:
	// at least 4 distinct deviation strategies injected, under open-loop
	// load, with the safety invariant checked and intact.
	if got := len(first.Digest.Deviations); got < 4 {
		t.Fatalf("only %d deviation strategies injected (%v), want >= 4",
			got, first.Digest.Deviations)
	}
	if first.Digest.Submitted == 0 || first.Digest.SwapsFinished == 0 {
		t.Fatalf("no load flowed: %+v", first.Digest)
	}
	if len(first.Violations) != 0 {
		t.Fatalf("safety violations: %+v", first.Violations)
	}
	if first.Digest.Safety != "ok" || first.Digest.Conservation != "ok" {
		t.Fatalf("digest safety %q conservation %q", first.Digest.Safety, first.Digest.Conservation)
	}
	// Aborted swaps must exist (the deviants did something) alongside
	// clean Deals, and the settle-order trace must cover every finished
	// swap.
	if first.Digest.Outcomes["NoDeal"] == 0 || first.Digest.Outcomes["Deal"] == 0 {
		t.Fatalf("deviation mix produced one-sided outcomes: %v", first.Digest.Outcomes)
	}
	if len(first.Digest.SettleOrder) != first.Digest.SwapsFinished {
		t.Fatalf("settle order has %d swaps, report says %d finished",
			len(first.Digest.SettleOrder), first.Digest.SwapsFinished)
	}
}

// TestDeterminismSeedSensitivity: different seeds must actually produce
// different runs — a digest that never changes is vacuously identical.
func TestDeterminismSeedSensitivity(t *testing.T) {
	a, err := Run(mixScenario(9001))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mixScenario(9002))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest.JSON() == b.Digest.JSON() {
		t.Fatal("different seeds produced identical digests")
	}
}

// TestAdaptiveDeltaTrajectoryReplay pins the Δ controller into the
// replay contract: with AdaptiveDelta on, the decision series itself
// (rounds, ticks, window evidence) must be byte-stable.
func TestAdaptiveDeltaTrajectoryReplay(t *testing.T) {
	sc := Scenario{
		Name:          "adaptive-replay",
		Seed:          31,
		Offers:        36,
		Rate:          1500,
		Profile:       "constant",
		AdaptiveDelta: true,
		Delta:         30,
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Digest.DeltaTrajectory) == 0 {
		t.Fatal("adaptive scenario recorded no delta trajectory")
	}
	if a.Digest.JSON() != b.Digest.JSON() {
		t.Fatalf("adaptive trajectory diverged:\n%v\nvs\n%v",
			a.Digest.DeltaTrajectory, b.Digest.DeltaTrajectory)
	}
}

// TestSuiteReplays runs the shipped corpus end to end: every scenario
// must replay byte-identically and finish with safety intact. This is
// the same property the CI smoke job checks via swapbench -scenario.
func TestSuiteReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite replay")
	}
	forEachProtocol(t, suiteReplays)
}

func suiteReplays(t *testing.T, run runner) {
	for _, sc := range Suite(0) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a, err := run(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest.JSON() != b.Digest.JSON() {
				t.Fatalf("suite scenario %q diverged across replays", sc.Name)
			}
			if len(a.Violations) != 0 {
				t.Fatalf("violations: %+v", a.Violations)
			}
		})
	}
}

// TestValidation rejects malformed scenarios up front.
func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"no offers", Scenario{Rate: 100}, "Offers"},
		{"no rate", Scenario{Offers: 10}, "Rate"},
		{"bad strategy", Scenario{Offers: 10, Rate: 100,
			Deviations: []Deviation{{Strategy: "bribe-the-miners", Rate: 0.1}}}, "unknown strategy"},
		{"bad rate", Scenario{Offers: 10, Rate: 100,
			Deviations: []Deviation{{Strategy: "crash", Rate: 1.5}}}, "outside [0,1]"},
		{"rates sum past 1", Scenario{Offers: 10, Rate: 100,
			Deviations: []Deviation{{Strategy: "crash", Rate: 0.6}, {Strategy: "no-claim", Rate: 0.6}}}, "sum"},
		{"bad profile", Scenario{Offers: 10, Rate: 100, Profile: "fibonacci"}, "unknown profile"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestStrategiesListed pins the taxonomy surface: every documented
// strategy resolves, and the registry stays sorted and stable.
func TestStrategiesListed(t *testing.T) {
	want := []string{
		"corrupt-publish", "crash", "eager-publish", "no-claim",
		"premature-reveal", "silent-leader", "stall-past-timelock", "withhold-publish",
	}
	got := Strategies()
	if len(got) != len(want) {
		t.Fatalf("strategies %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strategies %v, want %v", got, want)
		}
	}
}

// TestFamily: the names swapbench -scenario accepts. "all" stays the
// thirteen-entry suite, the grids have their fixed shapes, a suite entry
// resolves to itself, and an unknown name is an error that says what would
// have been accepted — suite entries and grid names both.
func TestFamily(t *testing.T) {
	for name, want := range map[string]int{"all": 13, "reorg-grid": 10, "econ-grid": 19, "griefing-mix": 1} {
		scs, err := Family(name, 0)
		if err != nil || len(scs) != want {
			t.Errorf("Family(%q) = %d scenarios, %v; want %d", name, len(scs), err, want)
		}
	}
	_, err := Family("reorg-gird", 0)
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, accepted := range []string{"all", "reorg-grid", "econ-grid", "coalition-flood"} {
		if !strings.Contains(err.Error(), accepted) {
			t.Errorf("error %q does not list %q", err, accepted)
		}
	}
}
