package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// parentFixture is a store directory written by the commit before the
// append-style encoder (json.Marshal per event, cloneState per snapshot):
// writeFixture's event stream through fixtureOptions, giving a snapshot
// plus two segments. Regenerate only from a checkout of that commit:
//
//	ASWAL_WRITE_FIXTURE=<dir> go test -run TestWriteFixture ./internal/durable/
const parentFixture = "testdata/parent-pr13"

// fixtureOptions rotates once inside the fixture's post-snapshot tail.
var fixtureOptions = Options{SegmentBytes: 4096}

// fixtureSwaps splits the stream: swaps below fixtureSnapshotAt are
// folded into the snapshot, the rest stay in the segments.
const (
	fixtureSwaps      = 10
	fixtureSnapshotAt = 7
)

// swapEvents is one three-party ring's full event trail — every event
// kind, every Event field — as the engine would log it. Swaps 5 and 8
// abort (reverted, shed, rejected, refunded NoDeal), so those kinds are
// in the snapshot and in the segments.
func swapEvents(n int) []engine.Event {
	t0 := vtime.Ticks(10 * n)
	tag := fmt.Sprintf("swap-%06d", n+1)
	party := func(i int) string { return fmt.Sprintf("g%d-p%d", n%4, i) }
	asset := func(i int) chain.AssetID { return chain.AssetID(fmt.Sprintf("asset-%d-%d", n, i)) }
	chainOf := func(i int) string { return fmt.Sprintf("chain-%d", (n+i)%3) }

	var evs []engine.Event
	var ids []engine.OrderID
	for i := 0; i < 3; i++ {
		id := engine.OrderID(3*n + i + 1)
		ids = append(ids, id)
		seed := bytes.Repeat([]byte{byte(16*n + i)}, 32)
		evs = append(evs,
			engine.Event{Kind: engine.EvIdentity, Tick: t0, Party: party(i), Seed: seed},
			engine.Event{Kind: engine.EvMinted, Tick: t0, Chain: chainOf(i), Asset: asset(i), Amount: uint64(1 + n), Party: party(i)},
			engine.Event{Kind: engine.EvBooked, Tick: t0, Order: id, Offer: &core.Offer{
				Party: chain.PartyID(party(i)),
				Give: []core.ProposedTransfer{{
					To: chain.PartyID(party((i + 1) % 3)), Chain: chainOf(i), Asset: asset(i), Amount: uint64(1 + n),
				}},
			}},
		)
	}
	evs = append(evs,
		engine.Event{Kind: engine.EvPrepared, Tick: t0 + 1, Swap: tag, Orders: ids, Count: 2},
		engine.Event{Kind: engine.EvCleared, Tick: t0 + 1, Swap: tag, Orders: ids},
	)
	for i := 0; i < 3; i++ {
		evs = append(evs, engine.Event{Kind: engine.EvReserved, Tick: t0 + 1, Swap: tag, Chain: chainOf(i), Asset: asset(i)})
	}
	evs = append(evs,
		engine.Event{Kind: engine.EvPhase, Tick: t0 + 2, Swap: tag, Phase: "start", Deadline: t0 + 120},
		engine.Event{Kind: engine.EvPhase, Tick: t0 + 4, Swap: tag, Phase: "escrow", Deadline: t0 + 120},
	)
	aborted := n == 5 || n == 8
	class := int(outcome.Deal)
	if aborted {
		class = int(outcome.NoDeal)
		evs = append(evs,
			engine.Event{Kind: engine.EvReverted, Tick: t0 + 5, Swap: tag, Chain: chainOf(0), Phase: "escrow"},
			engine.Event{Kind: engine.EvShed, Tick: t0 + 5, Count: 3},
			engine.Event{Kind: engine.EvRejected, Tick: t0 + 5, Order: engine.OrderID(1000 + n), Reason: "duplicate offer"},
		)
	} else {
		evs = append(evs, engine.Event{Kind: engine.EvPhase, Tick: t0 + 6, Swap: tag, Phase: "reveal", Deadline: t0 + 120})
	}
	for i := 0; i < 3; i++ {
		owner := party((i + 1) % 3)
		if aborted {
			owner = party(i)
		}
		evs = append(evs, engine.Event{Kind: engine.EvReleased, Tick: t0 + 8, Swap: tag, Chain: chainOf(i), Asset: asset(i), Party: owner})
	}
	for i, id := range ids {
		ev := engine.Event{Kind: engine.EvSettled, Tick: t0 + 8, Order: id, Swap: tag, Class: class}
		if aborted && i == 0 {
			ev.Deviant = "silent-leader"
		}
		evs = append(evs, ev)
	}
	return evs
}

// writeFixture drives the fixture's event stream through a store in dir:
// the first fixtureSnapshotAt swaps, a snapshot, the rest, a kill marker.
func writeFixture(t *testing.T, dir string) {
	t.Helper()
	opts := fixtureOptions
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for n := 0; n < fixtureSwaps; n++ {
		if n == fixtureSnapshotAt {
			if err := s.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
		for _, ev := range swapEvents(n) {
			s.Append(ev)
		}
	}
	s.Append(engine.Event{Kind: engine.EvKilled, Tick: vtime.Ticks(10 * fixtureSwaps)})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// fixtureFold is the fold the fixture directory must open to.
func fixtureFold() *State {
	st := NewState()
	for n := 0; n < fixtureSwaps; n++ {
		for _, ev := range swapEvents(n) {
			st.Apply(ev)
		}
	}
	st.Apply(engine.Event{Kind: engine.EvKilled, Tick: vtime.Ticks(10 * fixtureSwaps)})
	return st
}

// TestWriteFixture regenerates the fixture directory; it is a no-op
// unless ASWAL_WRITE_FIXTURE names the output directory.
func TestWriteFixture(t *testing.T) {
	dir := os.Getenv("ASWAL_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set ASWAL_WRITE_FIXTURE=<dir> to regenerate the fixture")
	}
	writeFixture(t, dir)
}

// dirFiles reads every regular file in dir, keyed by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		files[e.Name()] = data
	}
	return files
}

// copyDir copies the files of src into a fresh temp directory (Open
// writes to the directory it opens, and testdata stays read-only).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range dirFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatalf("copy %s: %v", name, err)
		}
	}
	return dst
}

// TestParentFixtureShape guards the fixture itself: a snapshot and two
// segments that both hold frames.
func TestParentFixtureShape(t *testing.T) {
	files := dirFiles(t, parentFixture)
	if _, ok := files[snapshotFile]; !ok {
		t.Fatalf("fixture has no %s", snapshotFile)
	}
	segs := 0
	for name, data := range files {
		if _, ok := segmentIndex(name); !ok {
			continue
		}
		segs++
		if frames, err := parseSegment(name, data, false); err != nil || len(frames) == 0 {
			t.Errorf("fixture segment %s: %d frames, err %v; want frames and no error", name, len(frames), err)
		}
	}
	if segs != 2 {
		t.Errorf("fixture has %d segments, want 2", segs)
	}
}

// TestParentWrittenDirOpens: a directory the parent commit wrote opens,
// folds and recovers under this code exactly as the event stream says.
func TestParentWrittenDirOpens(t *testing.T) {
	dir := copyDir(t, parentFixture)
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := s.ResolvedState(0)
	if err != nil {
		t.Fatalf("ResolvedState: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := fixtureFold()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parent-written directory folds to\n%s\nwant\n%s", mustJSON(t, got), mustJSON(t, want))
	}

	wantRS, wantResumed, wantRefunded := want.Resolve(want.MaxTick, core.DefaultDelta)
	e, rec, err := Recover(engine.Config{Workers: 2, Deterministic: true}, RecoverOptions{Dir: dir})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Events != want.Events || rec.Resumed != wantResumed || rec.Refunded != wantRefunded || rec.Tick != wantRS.Tick {
		t.Errorf("Recover: %d events, %d resumed, %d refunded at tick %d; want %d, %d, %d at %d",
			rec.Events, rec.Resumed, rec.Refunded, rec.Tick, want.Events, wantResumed, wantRefunded, wantRS.Tick)
	}
	if n := len(e.Orders()); n != len(want.Orders) {
		t.Errorf("recovered engine carries %d orders, want %d", n, len(want.Orders))
	}
}

// TestWritesParentBytes is the other direction: the same event stream
// through this code leaves byte-identical files, so the parent commit
// reads what this one writes. The one difference is the snapshot's
// "identities" field, which the fold no longer keeps: this code's
// snapshot is the parent's with that field cut out, every other byte
// equal.
func TestWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir)
	got, want := dirFiles(t, dir), dirFiles(t, parentFixture)
	want[snapshotFile] = withoutIdentities(t, want[snapshotFile])
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: parent wrote it, this code did not", name)
		} else if !bytes.Equal(g, w) {
			t.Errorf("%s: %d bytes differ from the parent's %d", name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written by this code, absent from the parent's directory", name)
		}
	}
}

// withoutIdentities returns a parent snapshot file re-framed without its
// state's "identities" field.
func withoutIdentities(t *testing.T, file []byte) []byte {
	t.Helper()
	frames, err := parseFrames(file)
	if err != nil || len(frames) != 1 {
		t.Fatalf("parent snapshot: %d frames, err %v", len(frames), err)
	}
	var snap struct {
		State map[string]json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(frames[0], &snap); err != nil {
		t.Fatalf("parent snapshot: %v", err)
	}
	ids, ok := snap.State["identities"]
	if !ok {
		t.Fatal("parent snapshot has no identities field")
	}
	field := append(append([]byte(`"identities":`), ids...), ',')
	if bytes.Count(frames[0], field) != 1 {
		t.Fatalf("parent snapshot holds its identities field %d times", bytes.Count(frames[0], field))
	}
	return appendFrame(nil, bytes.Replace(frames[0], field, nil, 1))
}
