package scenario

import "testing"

// withParallel flips the execution knob without touching the schedule
// identity: everything the digest hashes stays the same.
func withParallel(sc Scenario) Scenario {
	sc.Parallel = true
	return sc
}

// TestParallelDigestEquality is the striped-dispatch determinism
// contract: the same adversarial scenario run on the serialized
// deterministic scheduler and on the striped-parallel one must produce
// byte-identical digests — same intake ticks, same clearing rounds,
// same settle order, same outcome classes. Parallel dispatch is an
// execution strategy, not a schedule change; if this test fails, the
// stripe partitioning leaked cross-swap ordering. TestReplayLadder
// checks the suite entries' parallel digests against the pinned files;
// this test covers mixScenario, which is pinned nowhere.
func TestParallelDigestEquality(t *testing.T) {
	sc := mixScenario(9001)
	serial, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(withParallel(sc))
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Digest.JSON(), parallel.Digest.JSON()
	if a != b {
		t.Fatalf("serial vs parallel digests diverged:\nserial:   %s\nparallel: %s", a, b)
	}
	if serial.Digest.Hash() != parallel.Digest.Hash() {
		t.Fatal("digest hashes diverged")
	}
	// The parallel run must be a real run, not a degenerate no-op.
	if parallel.Digest.SwapsFinished == 0 || len(parallel.Violations) != 0 {
		t.Fatalf("parallel run degenerate: %+v violations %+v",
			parallel.Digest, parallel.Violations)
	}
}
