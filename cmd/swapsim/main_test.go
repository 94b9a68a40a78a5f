package main

import (
	"strings"
	"testing"
)

// TestSmoke drives the one run-and-print path: the Runner, with -adversary
// and -audit.
func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		name, scenario, kind, adversary string
		audit                           bool
		want                            string
	}{
		{"default", "threeway", "general", "none", false, "all Deal: true"},
		{"single-leader lastmoment", "cycle:4", "single-leader", "lastmoment:1", true, "all Deal: true"},
		{"withhold audited", "threeway", "general", "withhold:1", true, "parties at fault"},
		{"twoleader", "twoleader", "general", "none", false, "all Deal: true"},
		{"noclaim audited", "threeway", "general", "noclaim:1", true, "withheld claim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(&out, tc.scenario, tc.kind, tc.adversary, 1, 10, false, tc.audit); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
	var out strings.Builder
	if err := run(&out, "threeway", "general", "bribe:1", 1, 10, false, false); err == nil {
		t.Error("an unknown adversary must be refused")
	}
}
