package main

import (
	"bufio"
	"encoding/json"
	"os"
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

// TestRunScenariosPrintsPinnedHash: the line -scenario prints for a suite
// entry carries the hash its digest has in the pinned all.jsonl, so the
// command and the committed digests name a run the same way.
func TestRunScenariosPrintsPinnedHash(t *testing.T) {
	const entry = "reorg-depth"
	want := ""
	raw, err := os.ReadFile("../../internal/engine/scenario/testdata/digests/all.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var pinned struct {
			Offset   int64  `json:"offset"`
			Hash     string `json:"hash"`
			Scenario string `json:"scenario"`
		}
		if json.Unmarshal([]byte(line), &pinned) == nil && pinned.Offset == 0 && pinned.Scenario == entry {
			want = pinned.Hash
		}
	}
	if want == "" {
		t.Fatalf("all.jsonl pins no %s at offset 0", entry)
	}

	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = runScenarios(entry, 0)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("printed %d lines, want 1", len(lines))
	}
	var got struct {
		Bench  string `json:"bench"`
		Hash   string `json:"hash"`
		Digest struct {
			Scenario string `json:"scenario"`
		} `json:"digest"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("%v: %s", err, lines[0])
	}
	if got.Bench != "scenario" || got.Digest.Scenario != entry || got.Hash != want {
		t.Fatalf("printed bench %q scenario %q hash %s; want scenario %s hash %s",
			got.Bench, got.Digest.Scenario, got.Hash, entry, want)
	}
}
