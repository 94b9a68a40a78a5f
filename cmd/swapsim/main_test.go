package main

import (
	"strings"
	"testing"
)

// TestSmoke drives the one run-and-print path on both schedulers: the flag
// picks where the parties run, and -adversary and -audit work on either.
func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		name, scenario, kind, adversary string
		audit, concurrent               bool
		want                            string
	}{
		{"default", "threeway", "general", "none", false, false, "all Deal: true"},
		{"single-leader lastmoment", "cycle:4", "single-leader", "lastmoment:1", true, false, "all Deal: true"},
		{"withhold audited", "threeway", "general", "withhold:1", true, false, "parties at fault"},
		{"concurrent", "twoleader", "general", "none", false, true, "all Deal: true"},
		{"concurrent noclaim", "threeway", "general", "noclaim:1", true, true, "withheld claim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(&out, tc.scenario, tc.kind, tc.adversary, 1, 10, false, tc.audit, tc.concurrent); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
	var out strings.Builder
	if err := run(&out, "threeway", "general", "bribe:1", 1, 10, false, false, true); err == nil {
		t.Error("an unknown adversary must be refused under -concurrent too")
	}
}
