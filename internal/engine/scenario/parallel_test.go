package scenario

import (
	"fmt"
	"testing"
)

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
// stripe partitioning leaked cross-swap ordering. CI runs it under
// -race with -count=2.
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

// TestParallelSuiteDigestEquality runs the whole shipped corpus under
// both dispatchers and diffs each digest pair. This includes
// engine-crash@tick, whose digest spans both engine lives — the kill,
// the WAL replay, and the recovered drain all happen under striped
// dispatch too, so the two-life arc must be schedule-pure in either
// mode.
func TestParallelSuiteDigestEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite serial-vs-parallel replay")
	}
	// Workers 2 is one helper at most: the dispatcher runs nearly every
	// stripe itself, so a callback that waited for another stripe of its
	// own batch (sched.Scheduler.At forbids it) would hang here.
	for _, workers := range []int{0, 2} {
		for _, sc := range Suite(0) {
			sc := sc
			name := sc.Name
			if workers > 0 {
				sc.Workers = workers
				name = fmt.Sprintf("%s@workers=%d", name, workers)
			}
			t.Run(name, func(t *testing.T) {
				serial, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				parallel, err := Run(withParallel(sc))
				if err != nil {
					t.Fatal(err)
				}
				if serial.Digest.JSON() != parallel.Digest.JSON() {
					t.Fatalf("suite scenario %q: serial vs parallel digests diverged:\nserial:   %s\nparallel: %s",
						sc.Name, serial.Digest.JSON(), parallel.Digest.JSON())
				}
				if sc.CrashTick > 0 && parallel.Digest.Crash == nil {
					t.Fatalf("crash scenario %q recorded no crash digest under parallel dispatch", sc.Name)
				}
			})
		}
	}
}
