package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
// frame: the folded state plus the schema version that folded it, and the
// index of the first segment the state does not cover. Segments below
// Cover are folded into State already: a crash between the snapshot's
// rename and their unlinks leaves them on disk, and readers skip them. A
// snapshot without the field (older builds, which unlink every segment
// first and ignore it on read) covers none. appendSnapshot writes it;
// readers decode it with encoding/json.
type snapshot struct {
	Version int    `json:"version"`
	State   *State `json:"state"`
	Cover   int    `json:"cover,omitempty"`
}

// writeSnapshot atomically and durably replaces the snapshot file with
// the framed envelope of st covering the segments below cover, byte for
// byte sealFrame(encodeSnapshot(...)), streamed through w (see
// snapStream.writeFrame): it goes to a temp file, is fsynced, and renamed
// into place, and then the directory is fsynced so the rename itself is on
// disk — the caller deletes the log this snapshot covers next, and a power
// cut must not keep those unlinks while losing the rename. A crash
// anywhere in between leaves either the old snapshot or the new one, never
// a half-written hybrid — and the frame checksum catches the rename-raced
// remainder case. A crash after the rename, before the unlinks, leaves
// covered segments beside the new snapshot, which readers skip by its
// cover. step is called after the fsync, the rename and the directory
// fsync, each a point where a crash leaves a different directory.
func writeSnapshot(dir string, st *State, cover int, w *snapStream, step func(point string)) error {
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := w.writeFrame(f, st, cover); err != nil {
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
	step("fsync")
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFile)); err != nil {
		return err
	}
	step("rename")
	if err := syncDir(dir); err != nil {
		return err
	}
	step("dirsync")
	return nil
}

// snapChunk is the streamed snapshot's write size: the encoder hands its
// buffer to the file once it holds this much, between two entries.
const snapChunk = 64 << 10

// snapRoom is the buffer's capacity beyond snapChunk, room for the entry
// that crosses it; a bigger entry grows the buffer, once.
const snapRoom = 4 << 10

// snapStream writes snapshot frames through one buffer of fixed size, so a
// snapshot costs the same memory whatever the size of the fold. A store
// owns one and reuses it, with the map keys it sorts, across snapshots.
type snapStream struct {
	buf  []byte
	keys keyScratch

	// The frame being written: its file, the payload's running checksum
	// and length, and the first write error.
	f   *os.File
	sum uint32
	n   int
	err error
}

// writeFrame writes the frame of st's snapshot covering the segments
// below cover to f, which is empty: a header
// placeholder, the payload a chunk at a time, each chunk folded into the
// checksum as it goes out, and then the header itself at offset 0.
func (w *snapStream) writeFrame(f *os.File, st *State, cover int) error {
	if w.buf == nil {
		w.buf = make([]byte, 0, snapChunk+snapRoom)
	}
	var hdr [frameHeader]byte
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	w.f, w.sum, w.n, w.err = f, 0, 0, nil
	buf := encodeSnapshot(w.buf[:0], st, cover, &w.keys, w.spill)
	w.buf = w.spill(buf)
	w.f = nil
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.n))
	binary.LittleEndian.PutUint32(hdr[4:8], w.sum)
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// spill writes buf, the next stretch of the payload, and returns it
// emptied for the encoder to go on with. After a failed write it only
// empties it.
func (w *snapStream) spill(buf []byte) []byte {
	if w.err == nil {
		w.sum = crc32.Update(w.sum, crc32.IEEETable, buf)
		w.n += len(buf)
		_, w.err = w.f.Write(buf)
	}
	return buf[:0]
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

// readSnapshot loads the snapshot file if present, with the index of the
// first segment it does not cover. A missing file means "no snapshot yet"
// (nil, 0, nil); a present-but-damaged or version-skewed file is an error
// — the snapshot is the fold's foundation, and unlike a log tail there is
// no safe prefix to salvage.
func readSnapshot(dir string) (*State, int, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	frames, err := parseFrames(data)
	if err != nil || len(frames) != 1 {
		return nil, 0, fmt.Errorf("%w: snapshot: bad frame", ErrCorrupt)
	}
	var snap snapshot
	if err := json.Unmarshal(frames[0], &snap); err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	if snap.Version != snapshotVersion {
		return nil, 0, fmt.Errorf("durable: snapshot version %d, this build reads %d", snap.Version, snapshotVersion)
	}
	if snap.State == nil {
		return nil, 0, fmt.Errorf("%w: snapshot: empty state", ErrCorrupt)
	}
	if snap.Cover < 0 {
		return nil, 0, fmt.Errorf("%w: snapshot: cover %d", ErrCorrupt, snap.Cover)
	}
	// Maps inside a decoded State may be nil when empty; normalize so
	// Apply can fold into them directly.
	if snap.State.Assets == nil {
		snap.State.Assets = make(map[string]*AssetState)
	}
	if snap.State.Orders == nil {
		snap.State.Orders = make(map[engine.OrderID]OrderState)
	}
	if snap.State.Swaps == nil {
		snap.State.Swaps = make(map[string]SwapState)
	}
	return snap.State, snap.Cover, nil
}
