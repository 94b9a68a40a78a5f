package main

import (
	"strings"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/expt"
)

// TestSelectExperiments: -only used to filter silently, so an unknown ID —
// or one typo in a list — printed nothing and exited 0.
func TestSelectExperiments(t *testing.T) {
	ids := func(es []expt.Experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return strings.Join(out, ",")
	}
	all := ids(expt.All())
	for only, want := range map[string]string{
		"":         all,
		" , ":      all,
		"e9, E5":   "E5,E9", // index order, case-insensitive
		"E1,,E17,": "E1,E17",
	} {
		got, err := selectExperiments(only)
		if err != nil || ids(got) != want {
			t.Errorf("selectExperiments(%q) = %s, %v; want %s", only, ids(got), err, want)
		}
	}
	for _, only := range []string{"E99", "E5,E91"} {
		_, err := selectExperiments(only)
		if err == nil || !strings.Contains(err.Error(), "E17") {
			t.Errorf("selectExperiments(%q): error %v, want one listing the known IDs", only, err)
		}
	}
}
