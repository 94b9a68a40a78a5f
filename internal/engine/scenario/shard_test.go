package scenario

import "testing"

// withExecShards overrides the execution shard count without touching
// the scenario's identity: the offer stream, seeds, and schedule stay
// fixed (ExecShards is excluded from the digest's JSON), only the
// engine topology changes.
func withExecShards(sc Scenario, n int) Scenario {
	sc.ExecShards = n
	return sc
}

// TestShardScenarioReplays: the sharded suite entries — parallel
// shard-local clearing, and the two-level escalation path under 50%
// cross-shard load — must replay byte-identically from their seeds,
// with safety and conservation intact. CI runs this under -race with
// -count=2.
func TestShardScenarioReplays(t *testing.T) {
	for _, name := range []string{"sharded-local", "sharded-cross"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest.JSON() != b.Digest.JSON() {
				t.Fatalf("sharded scenario diverged across replays:\nrun1: %s\nrun2: %s",
					a.Digest.JSON(), b.Digest.JSON())
			}
			if len(a.Violations) != 0 {
				t.Fatalf("violations: %+v", a.Violations)
			}
			if a.Digest.SwapsFinished == 0 || a.Digest.Conservation != "ok" || a.Digest.Safety != "ok" {
				t.Fatalf("degenerate sharded run: %+v", a.Digest)
			}
		})
	}
}

// TestShardMergedDigestMatchesSingle is the tentpole's determinism
// contract: a scenario with zero cross-shard traffic executed on 4
// shards (each engine clearing only its own book, merged through the
// canonical-identity machinery) must produce a merged digest
// BYTE-IDENTICAL to the same scenario folded onto 1 shard — same
// intake ticks, same clearing rounds, same swap tags, same settle
// order. If this fails, some shard-count-dependent choice (IDs, swap
// seeds, clearing grid, escalation age) leaked into the schedule. Both
// shard-local entries, at eight seeds: seeds 1 and 5 of sharded-local
// caught a parked shard loop skipping its own grid tick.
func TestShardMergedDigestMatchesSingle(t *testing.T) {
	for _, name := range []string{"sharded-local", "reorg-sharded"} {
		for seed := int64(0); seed < 8; seed++ {
			sc, err := ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			four, err := Run(withExecShards(sc, 4))
			if err != nil {
				t.Fatal(err)
			}
			one, err := Run(withExecShards(sc, 1))
			if err != nil {
				t.Fatal(err)
			}
			a, b := four.Digest.JSON(), one.Digest.JSON()
			if a != b {
				t.Fatalf("%s seed %d: 4-shard vs 1-shard digests diverged:\n4: %s\n1: %s", name, seed, a, b)
			}
			if four.Digest.Hash() != one.Digest.Hash() {
				t.Fatalf("%s seed %d: digest hashes diverged", name, seed)
			}
			if four.Digest.SwapsFinished == 0 {
				t.Fatalf("%s seed %d: degenerate run", name, seed)
			}
		}
	}
}

// TestOneShardMatchesPlain: Shards 0 and 1 build the same engine — one
// unit, no escalation sweep, no coordinator — and one identity rule and one
// clearing grid make it indistinguishable from the scenario's own engine.
// Every suite entry at eight seeds digests byte-identically both ways; for
// all but the natively sharded entries, the own engine is Shards 0, and for
// those it is four shards. The one exclusion is sharded-cross: natively
// four shards with half its rings spanning two of them, so on one shard
// those rings are local and clear before the escalation cutoff instead of
// after it.
func TestOneShardMatchesPlain(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, sc := range Suite(seed) {
			if sc.Name == "sharded-cross" {
				continue
			}
			own, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			one, err := Run(withExecShards(sc, 1))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := own.Digest.JSON(), one.Digest.JSON(); a != b {
				t.Fatalf("%s seed %d: own engine vs one shard digests diverged:\nown: %s\n1:   %s", sc.Name, seed, a, b)
			}
		}
	}
}

// TestShardMergedDigestMatchesSingleParallel stacks the two determinism
// contracts: striped-parallel dispatch across 4 shard stripes must
// still merge to the 1-shard serialized baseline, byte for byte.
func TestShardMergedDigestMatchesSingleParallel(t *testing.T) {
	sc, err := ByName("sharded-local", 0)
	if err != nil {
		t.Fatal(err)
	}
	par := withExecShards(sc, 4)
	par.Parallel = true
	four, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(withExecShards(sc, 1))
	if err != nil {
		t.Fatal(err)
	}
	if four.Digest.JSON() != one.Digest.JSON() {
		t.Fatalf("4-shard parallel vs 1-shard serial digests diverged:\n4: %s\n1: %s",
			four.Digest.JSON(), one.Digest.JSON())
	}
}

// TestShardReorgDigestMatchesSingle extends the merged-digest contract
// to the commitment model: the reorg-sharded scenario (confirmation
// depth 4, seeded 15% reverts, shard-local placement) must produce a
// 4-shard digest byte-identical to the 1-shard fold. Fates are drawn
// from canonical identities, so a divergence here means execution
// topology leaked into a fate key — exactly the bug class the
// interleave-independent fate hash exists to prevent.
func TestShardReorgDigestMatchesSingle(t *testing.T) {
	forEachProtocol(t, shardReorgDigestMatchesSingle)
}

func shardReorgDigestMatchesSingle(t *testing.T, run runner) {
	sc, err := ByName("reorg-sharded", 0)
	if err != nil {
		t.Fatal(err)
	}
	four, err := run(withExecShards(sc, 4))
	if err != nil {
		t.Fatal(err)
	}
	one, err := run(withExecShards(sc, 1))
	if err != nil {
		t.Fatal(err)
	}
	if four.Digest.JSON() != one.Digest.JSON() {
		t.Fatalf("4-shard vs 1-shard reorg digests diverged:\n4: %s\n1: %s",
			four.Digest.JSON(), one.Digest.JSON())
	}
	if four.Digest.Reverts == 0 {
		t.Fatal("reorg-sharded run observed no reverts; the commitment model is not firing under sharded execution")
	}
	if four.Digest.Conservation != "ok" || four.Digest.Safety != "ok" {
		t.Fatalf("degenerate reorg-sharded run: %+v", four.Digest)
	}
}

// TestShardSuiteRunsSharded forces the WHOLE shipped corpus — griefing,
// crash swarms, overload shedding, and the engine-crash@tick two-life
// arc — through the sharded engine, and requires every scenario to
// replay byte-identically. Cross-ring sabotage, WAL recovery, and shed
// accounting all have to survive the re-partition.
func TestShardSuiteRunsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sharded replay")
	}
	for _, sc := range Suite(0) {
		sc := withExecShards(sc, 4)
		t.Run(sc.Name, func(t *testing.T) {
			a, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest.JSON() != b.Digest.JSON() {
				t.Fatalf("suite scenario %q diverged across sharded replays", sc.Name)
			}
			if sc.CrashTick > 0 && a.Digest.Crash == nil {
				t.Fatalf("crash scenario %q recorded no crash digest under sharded execution", sc.Name)
			}
			if a.Digest.Safety != "ok" {
				t.Fatalf("safety: %s", a.Digest.Safety)
			}
		})
	}
}
