package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// snapshotVersion is the snapshot envelope schema version. A snapshot
// written by a different version is an error, never a guess: state
// folded under one schema must not seed a fold under another.
const snapshotVersion = 1

// snapshotFile is the snapshot's name inside the store directory.
const snapshotFile = "snapshot.json"

// snapshot is the envelope persisted as the snapshot file's single
// frame: the folded state plus the schema version that folded it.
type snapshot struct {
	Version int    `json:"version"`
	State   *State `json:"state"`
}

// writeSnapshot atomically and durably replaces the snapshot file: the
// framed envelope goes to a temp file, is fsynced, and renamed into
// place, and then the directory is fsynced so the rename itself is on
// disk — the caller deletes the log this snapshot covers next, and a
// power cut must not keep those unlinks while losing the rename. A crash
// anywhere in between leaves either the old snapshot or the new one,
// never a half-written hybrid — and the frame checksum catches the
// rename-raced remainder case.
func writeSnapshot(dir string, st *State) error {
	payload, err := json.Marshal(snapshot{Version: snapshotVersion, State: st})
	if err != nil {
		return fmt.Errorf("durable: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the renames and creations of its
// entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readSnapshot loads the snapshot file if present. A missing file means
// "no snapshot yet" (nil, nil); a present-but-damaged or version-skewed
// file is an error — the snapshot is the fold's foundation, and unlike a
// log tail there is no safe prefix to salvage.
func readSnapshot(dir string) (*State, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	frames, err := parseFrames(data)
	if err != nil || len(frames) != 1 {
		return nil, fmt.Errorf("%w: snapshot: bad frame", ErrCorrupt)
	}
	var snap snapshot
	if err := json.Unmarshal(frames[0], &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("durable: snapshot version %d, this build reads %d", snap.Version, snapshotVersion)
	}
	if snap.State == nil {
		return nil, fmt.Errorf("%w: snapshot: empty state", ErrCorrupt)
	}
	// Maps inside a decoded State may be nil when empty; normalize so
	// Apply can fold into them directly.
	if snap.State.Identities == nil {
		snap.State.Identities = make(map[string][]byte)
	}
	if snap.State.Assets == nil {
		snap.State.Assets = make(map[string]*AssetState)
	}
	if snap.State.Orders == nil {
		snap.State.Orders = make(map[engine.OrderID]*OrderState)
	}
	if snap.State.Swaps == nil {
		snap.State.Swaps = make(map[string]*SwapState)
	}
	return snap.State, nil
}
