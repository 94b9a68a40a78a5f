package scenario

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/digests from this build's runs")

// digestOffsets are the seed offsets every pinned family runs at.
const digestOffsets = 8

// pinnedDigest is one line of a digest file: the seed offset, the
// digest's full hash (what swapbench -scenario prints), and the digest's
// fields inline, its per-order trace folded to a sha256 so a file stays
// reviewable. The outer Orders shadows the embedded one in JSON.
type pinnedDigest struct {
	Offset int64  `json:"offset"`
	Hash   string `json:"hash"`
	Digest
	Orders string `json:"orders"`
}

func pinDigest(offset int64, d Digest) string {
	orders, err := json.Marshal(d.Orders)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(orders)
	b, err := json.Marshal(pinnedDigest{
		Offset: offset, Hash: d.Hash(), Digest: d,
		Orders: "sha256:" + hex.EncodeToString(sum[:]),
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// digestFile names the pinned digests of one family on one topology: the
// entries' own shard counts, or all of them on four shards.
func digestFile(family string, shards int) string {
	name := family
	if shards > 0 {
		name = fmt.Sprintf("%s-shards%d", family, shards)
	}
	return filepath.Join("testdata", "digests", name+".jsonl")
}

// TestSuiteDigestsGolden replays every entry of all, reorg-grid and
// econ-grid at seed offsets 0–7, plain and on four shards, against the
// committed digests: a run is a pure function of its seed, and a change
// that moves any digest shows as a diff of these files. A mismatch names
// the first differing scenario and field. Rewrite the files with
// -update-digests only for a change that means to move them, and name
// each moved entry with its cause.
func TestSuiteDigestsGolden(t *testing.T) {
	for _, family := range []string{"all", "reorg-grid", "econ-grid"} {
		for _, shards := range []int{0, 4} {
			path := digestFile(family, shards)
			t.Run(filepath.Base(path), func(t *testing.T) {
				t.Parallel()
				var got []string
				for off := int64(0); off < digestOffsets; off++ {
					scs, err := Family(family, off)
					if err != nil {
						t.Fatal(err)
					}
					for _, sc := range scs {
						sc.ExecShards = shards
						res, err := Run(sc)
						if err != nil {
							t.Fatalf("%s offset %d: %v", sc.Name, off, err)
						}
						got = append(got, pinDigest(off, res.Digest))
					}
				}
				if *updateDigests {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want := readPinned(t, path)
				for i := range max(len(got), len(want)) {
					switch {
					case i >= len(want):
						t.Fatalf("%s: unpinned digest %s", path, got[i])
					case i >= len(got):
						t.Fatalf("%s: pinned digest %s was not produced", path, want[i])
					case got[i] != want[i]:
						t.Fatalf("%s line %d: %s", path, i+1, digestDiff(want[i], got[i]))
					}
				}
			})
		}
	}
}

// readPinned returns the lines of a digest file.
func readPinned(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-digests to create it)", err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// TestReplayLadder re-runs the suite in every execution shape a run may
// take and checks each digest against its line in the committed files: a
// digest is a function of its seed alone, whatever the core count, the
// dispatcher or the shard topology. The pinned line is the other run of
// each comparison, so no shape is compared to a second in-process run.
//
// Each GOMAXPROCS rung (1, 2, 4 and 8) runs two kinds of shape:
//   - parallel: all and all-shards4 at seed offsets 0 and 1 with Parallel
//     dispatch. At each entry's own Workers (8) that is 0, 1, 3 and 7
//     dispatch helpers. With one helper the dispatcher runs nearly every
//     stripe itself, so a callback that waited for another stripe of its
//     own batch would hang there.
//   - one-shard: all on one shard at offsets 0–7, which must equal the
//     entry's own engine. One shard is the plain engine, and for
//     sharded-local and reorg-sharded (four shards, no cross-shard ring)
//     one shard equals four. sharded-cross is left out: half its rings
//     span two shards, so on one shard they are local and clear before
//     the escalation cutoff instead of after it.
//
// Workers is not a rung: it is a schedule input, not an execution knob.
// An unsharded entry's MaxLive defaults to 16×Workers, so Workers 1 or 2
// moves coalition-flood (DESIGN.md §8).
//
// The test sets GOMAXPROCS, so it must not run in parallel with another.
func TestReplayLadder(t *testing.T) {
	all := digestFile("all", 0)
	for _, procs := range []int{1, 2, 4, 8} {
		rung := fmt.Sprintf("GOMAXPROCS=%d", procs)
		t.Run(rung, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			for _, shards := range []int{0, 4} {
				path := digestFile("all", shards)
				t.Run("parallel/"+filepath.Base(path), func(t *testing.T) {
					checkRung(t, rung+" parallel", path, 2, func(sc *Scenario) bool {
						sc.Parallel = true
						sc.ExecShards = shards
						return true
					})
				})
			}
			t.Run("one-shard/"+filepath.Base(all), func(t *testing.T) {
				checkRung(t, rung+" one-shard", all, digestOffsets, func(sc *Scenario) bool {
					sc.ExecShards = 1
					return sc.Name != "sharded-cross"
				})
			})
		})
	}
}

// checkRung runs the suite at seed offsets 0 to offsets−1, each entry in
// the shape that shape gives it (skipping an entry it returns false for),
// and checks every digest against its line of path. Each entry is its own
// subtest, so a failing rung lists every scenario that moved; a mismatch
// names the rung, the file, the scenario, the offset and the first
// differing field.
func checkRung(t *testing.T, rung, path string, offsets int64, shape func(*Scenario) bool) {
	t.Helper()
	pinned := readPinned(t, path)
	suites := make([][]Scenario, offsets)
	for off := range offsets {
		suites[off] = Suite(off)
	}
	for i, entry := range suites[0] {
		if !shape(&entry) {
			continue
		}
		t.Run(entry.Name, func(t *testing.T) {
			for off, scs := range suites {
				sc := scs[i]
				shape(&sc)
				res, err := Run(sc)
				if err != nil {
					t.Fatalf("%s: %s offset %d: %v", rung, sc.Name, off, err)
				}
				line := off*len(scs) + i
				if line >= len(pinned) {
					t.Fatalf("%s: %s: no pinned line for scenario %s offset %d", rung, path, sc.Name, off)
				}
				if got := pinDigest(int64(off), res.Digest); got != pinned[line] {
					t.Fatalf("%s: %s line %d: %s", rung, path, line+1, digestDiff(pinned[line], got))
				}
			}
		})
	}
}

// digestDiff names the scenario, the seed offset and the first field in
// which two pinned lines differ.
func digestDiff(want, got string) string {
	wk, wv := digestFields(want)
	_, gv := digestFields(got)
	scenario, offset := string(wv["scenario"]), string(wv["offset"])
	// The hash moves with any field, so it is named only if nothing else
	// differs.
	keys := slices.DeleteFunc(slices.Clone(wk), func(k string) bool { return k == "hash" })
	for _, k := range append(keys, "hash") {
		if !bytes.Equal(wv[k], gv[k]) {
			return fmt.Sprintf("scenario %s offset %s: field %q: want %s, got %s",
				scenario, offset, k, clip(wv[k]), clip(gv[k]))
		}
	}
	for k, v := range gv {
		if _, ok := wv[k]; !ok {
			return fmt.Sprintf("scenario %s offset %s: new field %q = %s", scenario, offset, k, clip(v))
		}
	}
	return fmt.Sprintf("lines differ in layout only:\nwant %s\ngot  %s", want, got)
}

// digestFields splits a pinned line into its top-level fields, in order.
func digestFields(line string) ([]string, map[string]json.RawMessage) {
	dec := json.NewDecoder(bufio.NewReader(strings.NewReader(line)))
	vals := make(map[string]json.RawMessage)
	var keys []string
	if _, err := dec.Token(); err != nil {
		return nil, vals
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			break
		}
		k, _ := tok.(string)
		keys = append(keys, k)
		vals[k] = v
	}
	return keys, vals
}

func clip(b []byte) string {
	if len(b) > 240 {
		return string(b[:240]) + "…"
	}
	return string(b)
}
