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
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update-digests to create it)", err)
				}
				want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
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
