package scenario

import (
	"strings"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// TestCrashScenarioReplays is the crash-recovery replay contract: kill
// the engine mid-run, recover from the WAL, finish on the second
// engine — twice — and the digests (which now cover restored orders,
// the resume/refund split, and the second life's settles) must be
// byte-identical. This is what lets engine-crash@tick be pinned, and
// checked by TestReplayLadder, like every other suite entry.
func TestCrashScenarioReplays(t *testing.T) { forEachProtocol(t, crashScenarioReplays) }

func crashScenarioReplays(t *testing.T, run runner) {
	sc, err := ByName("engine-crash@tick", 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest.JSON() != b.Digest.JSON() {
		t.Fatalf("crash scenario diverged across replays:\nrun1: %s\nrun2: %s",
			a.Digest.JSON(), b.Digest.JSON())
	}

	// The crash must have landed mid-execution and split the in-flight
	// swaps both ways — a run where nothing resumed (crashed too late)
	// or nothing refunded (crashed too early) witnesses only half the
	// recovery machinery.
	cd := a.Digest.Crash
	if cd == nil {
		t.Fatal("crash scenario produced no crash digest")
	}
	if cd.Tick != int64(sc.CrashTick) {
		t.Fatalf("crash at tick %d, want %d", cd.Tick, sc.CrashTick)
	}
	if cd.Replayed == 0 || cd.Resumed == 0 || cd.Refunded == 0 {
		t.Fatalf("recovery not exercised both ways: %+v", cd)
	}
	if a.Recovery == nil || a.Recovery.Events != cd.Replayed {
		t.Fatalf("result recovery %+v disagrees with digest %+v", a.Recovery, cd)
	}

	// Safety holds across the crash: every order terminated, no
	// conforming party underwater, ledgers intact.
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %+v", a.Violations)
	}
	if a.Digest.Safety != "ok" || a.Digest.Conservation != "ok" {
		t.Fatalf("digest safety %q conservation %q", a.Digest.Safety, a.Digest.Conservation)
	}
	terminated := 0
	for _, od := range a.Digest.Orders {
		if od.Status == "settled" || od.Status == "rejected" {
			terminated++
		}
	}
	if terminated != len(a.Digest.Orders) {
		t.Fatalf("%d of %d orders left unterminated after recovery",
			len(a.Digest.Orders)-terminated, len(a.Digest.Orders))
	}
}

// TestCrashRecoveryCountsRevertsOnEveryShape: a crash digest's reverts —
// the reorg reverts the first life logged before the kill — must not depend
// on which engine shape recovered the log. One reorg scenario (confirmation
// depth 4, 15% seeded reverts) on the shard-local placement, the stream
// whose sharded digests are comparable at all, is crashed mid-run on one
// shard and on four, and the two crash digests must agree field for field:
// the deployment logs one kill record, whatever its shard count. The same
// knobs on the unsharded engine must report reverts too. A separate sharded
// recovery path once built its own Recovery and left Reverts out.
func TestCrashRecoveryCountsRevertsOnEveryShape(t *testing.T) {
	sc := Scenario{
		Name:         "reorg-crash",
		Seed:         909,
		Offers:       48,
		Rate:         2000,
		Shards:       4,
		ConfirmDepth: 4,
		ReorgRate:    0.15,
		CrashTick:    50,
	}
	crash := func(sc Scenario) CrashDigest {
		t.Helper()
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations: %+v", res.Violations)
		}
		return *res.Digest.Crash
	}
	one, four := crash(withExecShards(sc, 1)), crash(withExecShards(sc, 4))
	if one.Reverts == 0 {
		t.Fatalf("sharded recovery reports no pre-crash reverts: %+v", one)
	}
	if four != one {
		t.Fatalf("crash digests diverge across shard counts:\n1 shard:  %+v\n4 shards: %+v", one, four)
	}
	sc.Shards = 0
	if single := crash(sc); single.Reverts == 0 {
		t.Fatalf("unsharded recovery reports no pre-crash reverts: %+v", single)
	}
}

// TestBudgetViolations pins the replay-budget machinery: impossible
// budgets must surface as violations (and flip the digest's safety
// line), generous ones must not.
func TestBudgetViolations(t *testing.T) {
	sc := Scenario{
		Name:           "budget-bust",
		Seed:           77,
		Offers:         12,
		Rate:           2000,
		Profile:        "constant",
		MaxClearRounds: 1,
		MaxSettleTick:  1,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations %+v, want one per busted budget", res.Violations)
	}
	for _, v := range res.Violations {
		if !strings.HasPrefix(v.Detail, "budget:") {
			t.Fatalf("unexpected violation %+v", v)
		}
	}
	if !strings.HasPrefix(res.Digest.Safety, "budget:") {
		t.Fatalf("digest safety %q, want budget violation", res.Digest.Safety)
	}

	sc.MaxClearRounds = res.Digest.ClearRounds + 1
	sc.MaxSettleTick = 10 * (vtime.Ticks(res.Digest.LastSettleTick) + 1)
	ok, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.Violations) != 0 {
		t.Fatalf("violations under generous budgets: %+v", ok.Violations)
	}
}
