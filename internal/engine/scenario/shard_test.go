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

// TestShardReorgDigestMatchesSingle extends the merged-digest contract
// to the commitment model: the reorg-sharded scenario (confirmation
// depth 4, seeded 15% reverts, shard-local placement) must produce a
// 4-shard digest byte-identical to the 1-shard fold. Fates are drawn
// from canonical identities, so a divergence here means execution
// topology leaked into a fate key — exactly the bug class the
// interleave-independent fate hash exists to prevent. TestReplayLadder's
// one-shard rung checks this at the engine's own protocol choice against
// the pinned files; with the hashkey protocol forced it is checked only
// here.
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
