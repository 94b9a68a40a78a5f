package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Options parameterizes a Store.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// SegmentBytes rotates the active segment when it grows past this
	// size (default 1 MiB).
	SegmentBytes int
	// SnapshotEvery, when positive, writes a snapshot and truncates the
	// log every that-many appended events. 0 disables automatic
	// snapshots — the crash-scenario configuration, where a cut-tick
	// replay needs the raw event stream (a snapshot bakes in every event
	// it covers, including ones stamped after the cut).
	SnapshotEvery int
}

// Store is the disk-backed engine.Store: an append-only checksummed WAL
// with segment rotation and snapshot truncation, plus the live fold of
// everything appended so far. Safe for concurrent Append from the
// scheduler's dispatcher and helpers, where every engine event is logged.
//
// Append frames each event into a pending buffer; a seal writes the buffer
// to the segment in one write(2). A store bound to a scheduler (SealOn)
// seals once per tick, after every other level of it; an unbound one seals
// every append. Rotation and Close seal first, so the segments hold the
// same bytes either way, and a crash cuts the log at a seal: a tick's end,
// or a rotation or snapshot inside one.
//
// Append never returns an error (the engine has no useful response to a
// failed append mid-flight); the first write failure latches, later
// appends become no-ops, and Err/Close surface it.
type Store struct {
	mu   sync.Mutex
	opts Options

	seg     *os.File // active segment
	segIdx  int      // its index (wal-%08d.seg)
	segSize int      // bytes framed into it, sealed or pending

	// live is the fold of everything appended so far; tail is every
	// event appended since the last snapshot, so live = snapshot file ⊕
	// tail. The fold as of the snapshot is not kept in memory: the one
	// reader that needs it (ResolvedState with a cut) re-reads the file.
	tail    []engine.Event
	live    *State
	hasData bool

	// pending is every frame appended since the last seal, each a header
	// followed by the payload appendEvent encodes in place; its backing
	// array is reused from seal to seal.
	pending []byte
	// seal is the bound scheduler's seal event (nil when unbound), queued
	// while a seal of pending frames is due.
	seal   *sealEvent
	queued bool

	// snap is the snapshot frame under construction and keys the map keys
	// it sorts, both reused across snapshots.
	snap []byte
	keys keyScratch

	sinceSnap int
	err       error
	closed    bool
}

// sealEvent is a bound store's seal: the event the store owns and queues
// at sched.TopLevel of a tick that appended.
type sealEvent struct {
	s  *Store
	v  *sched.Virtual
	ev sched.Event
}

// Fire implements sched.Handler: it writes the pending frames and
// latches a failed write, like every other seal. A store re-bound since
// this event was queued has a new one; the old one still seals,
// harmlessly, but leaves the new one's state alone.
func (se *sealEvent) Fire() {
	s := se.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seal == se {
		s.queued = false
	}
	s.latch(s.sealLocked())
}

// Open opens (or initializes) a store directory: the snapshot is loaded
// if present, every segment is parsed — torn tail tolerated only at the
// very end, and truncated away there — and the fold is rebuilt. The
// returned store is ready to be handed to an engine as Config.Store, or
// resolved for recovery.
func Open(opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{opts: opts}

	live, err := readSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	if live != nil {
		s.hasData = true
	} else {
		live = NewState()
	}
	s.live = live

	names, err := segmentNames(opts.Dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		path := filepath.Join(opts.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		last := i == len(names)-1
		if last && len(data) < len(walMagic) && bytes.HasPrefix(walMagic, data) {
			// A crash between the final segment's creation and its magic
			// (openSegment runs on every Open, rotation and snapshot) left
			// it empty or holding a prefix of the magic: a torn create.
			// Nothing was ever framed in it, so fold as if it were absent,
			// and make the unlink durable before a segment takes its place.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("durable: dropping torn create %s: %w", name, err)
			}
			if err := syncDir(opts.Dir); err != nil {
				return nil, fmt.Errorf("durable: dropping torn create %s: %w", name, err)
			}
			names = names[:i]
			break
		}
		frames, err := parseSegment(name, data, last)
		if err != nil {
			return nil, err
		}
		good := len(walMagic)
		for _, payload := range frames {
			var ev engine.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return nil, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, name, err)
			}
			s.tail = append(s.tail, ev)
			s.live.Apply(ev)
			good += frameHeader + len(payload)
		}
		if len(frames) > 0 {
			s.hasData = true
		}
		// Bytes left over after the last good frame are a torn tail, which
		// parseSegment lets through on the final segment only. Cut them off
		// here, while the segment is still final: the next segment opens
		// after it, and a torn frame in a non-final segment is corruption.
		if good < len(data) {
			if err := truncateSegment(path, int64(good)); err != nil {
				return nil, fmt.Errorf("durable: dropping torn tail of %s: %w", name, err)
			}
		}
	}

	// Resume appending to a fresh segment after the existing ones.
	next := 0
	if n := len(names); n > 0 {
		last, _ := segmentIndex(names[n-1])
		next = last + 1
	}
	if err := s.openSegment(next); err != nil {
		return nil, err
	}
	return s, nil
}

// HasData reports whether the directory held any snapshot or log data
// when opened — the "is this a restart?" test.
func (s *Store) HasData() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasData
}

// openSegment closes the active segment, if any, and starts segment idx
// as the active one. Caller holds s.mu (or is still single-threaded in
// Open).
func (s *Store) openSegment(idx int) error {
	if s.seg != nil {
		err := s.seg.Close()
		s.seg = nil
		if err != nil {
			return err
		}
	}
	f, err := os.OpenFile(
		filepath.Join(s.opts.Dir, fmt.Sprintf("wal-%08d.seg", idx)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segIdx = idx
	s.segSize = len(walMagic)
	return nil
}

// rotate seals the full segment, makes it durable and starts the next one.
// The fsync is what keeps a power cut from leaving this segment short with
// the next one on disk: Open refuses a torn frame in a non-final segment.
// Caller holds s.mu.
func (s *Store) rotate() error {
	if err := s.sealLocked(); err != nil {
		return err
	}
	if err := s.seg.Sync(); err != nil {
		return err
	}
	return s.openSegment(s.segIdx + 1)
}

// frameEvent encodes ev behind a reserved frame header at the end of the
// pending buffer and fills the header in. Caller holds s.mu.
func (s *Store) frameEvent(ev *engine.Event) {
	start := len(s.pending)
	buf := append(s.pending, make([]byte, frameHeader)...)
	buf = appendEvent(buf, ev)
	sealFrame(buf[start:])
	s.segSize += len(buf) - start
	s.pending = buf
}

// sealLocked hands the pending frames to the segment in one write(2): from
// then on they are in the page cache and survive a kill -9. A failed write
// drops them, as a failed write has always dropped its frame; the caller
// latches the error. Caller holds s.mu.
func (s *Store) sealLocked() error {
	if len(s.pending) == 0 || s.seg == nil {
		return nil
	}
	_, err := s.seg.Write(s.pending)
	s.pending = s.pending[:0]
	return err
}

// commitLocked makes sure the pending frames get sealed: an unbound store
// seals them now; a bound one queues its seal for the current tick unless
// it is queued already. A scheduler that has closed runs no seal, so the
// store seals now then too. Caller holds s.mu.
func (s *Store) commitLocked() error {
	if len(s.pending) == 0 || s.queued {
		return nil
	}
	// Tick 0 is never ahead: the seal lands on the current tick.
	if se := s.seal; se != nil && se.v.ScheduleTail(&se.ev, 0, sched.TopLevel, 0, se) {
		s.queued = true
		return nil
	}
	return s.sealLocked()
}

// latch records err as the store's error unless one is latched already.
func (s *Store) latch(err error) {
	if s.err == nil {
		s.err = err
	}
}

// SealOn binds the store's seals to v's timeline: an append leaves its
// frame pending, and the first append of a tick queues one seal at
// sched.TopLevel of that tick, after every other level. A nil v unbinds,
// and every append seals at once again. Frames already pending are sealed
// now, so none waits on a scheduler the store no longer watches.
// engine.New binds the store it is configured with.
func (s *Store) SealOn(v *sched.Virtual) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latch(s.sealLocked())
	s.seal, s.queued = nil, false
	if v != nil {
		s.seal = &sealEvent{s: s, v: v}
	}
}

// Append implements engine.Store: frame the event into the pending buffer,
// fold it into the live state, rotate the segment if full or snapshot if
// due, and see the frame sealed (see commitLocked). After Close (the crash
// model's "power is off") or a latched error it is a no-op.
func (s *Store) Append(ev engine.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	s.frameEvent(&ev)
	s.tail = append(s.tail, ev)
	s.live.Apply(ev)
	s.hasData = true
	s.sinceSnap++

	if s.segSize >= s.opts.SegmentBytes {
		if s.err = s.rotate(); s.err != nil {
			return
		}
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if s.err = s.snapshotLocked(); s.err != nil {
			return
		}
	}
	s.err = s.commitLocked()
}

// Snapshot forces a snapshot + log truncation now.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	if s.err != nil {
		return s.err
	}
	return s.snapshotLocked()
}

// snapshotLocked persists the live fold as the new snapshot, deletes
// every segment, drops the pending frames (the snapshot covers them) and
// starts a fresh segment. writeSnapshot returns only once the new file is
// durable under its final name, so the log it replaces is never unlinked
// ahead of it. Caller holds s.mu.
func (s *Store) snapshotLocked() error {
	buf := append(s.snap[:0], make([]byte, frameHeader)...)
	buf = appendSnapshot(buf, s.live, &s.keys)
	sealFrame(buf)
	s.snap = buf
	if err := writeSnapshot(s.opts.Dir, buf); err != nil {
		// The log keeps the frames the snapshot failed to cover.
		return errors.Join(err, s.sealLocked())
	}
	clear(s.tail) // release the events' offers and seeds, keep the array
	s.tail = s.tail[:0]
	s.pending = s.pending[:0]
	s.sinceSnap = 0
	names, err := segmentNames(s.opts.Dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
			return err
		}
	}
	return s.openSegment(s.segIdx + 1)
}

// ResolvedState returns an independent fold of the log, filtered to
// events stamped at or before cut when cut > 0. With a cut, the fold
// restarts from the snapshot file (the store keeps no in-memory copy of
// it) and must find snapshot-free history (the crash-scenario mode — see
// Options.SnapshotEvery); a snapshot may already bake in post-cut
// events, which is unrecoverable, so that combination errors.
func (s *Store) ResolvedState(cut vtime.Ticks) (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cut <= 0 {
		return s.live.Clone(), nil
	}
	if s.err != nil {
		// A failed write or snapshot leaves the directory in a state the
		// tail may no longer complement.
		return nil, s.err
	}
	st, err := readSnapshot(s.opts.Dir)
	if err != nil {
		return nil, err
	}
	if st == nil {
		st = NewState()
	}
	if st.Events > 0 && st.MaxTick > cut {
		return nil, fmt.Errorf("durable: cut tick %d predates snapshot (max tick %d): cut replay needs a snapshot-free log", cut, st.MaxTick)
	}
	for _, ev := range s.tail {
		if ev.Tick <= cut {
			st.Apply(ev)
		}
	}
	return st, nil
}

// AttachResolved replaces the store's contents with the post-resolution
// state: write it as the new snapshot, truncate every segment, and make
// it the live fold. This is the attached-recovery step that makes
// resolution idempotent — a second crash recovers from the resolved
// snapshot instead of re-deciding (and double-refunding) the same
// in-flight swaps.
func (s *Store) AttachResolved(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	if s.err != nil {
		return s.err
	}
	s.live = st.Clone()
	return s.snapshotLocked()
}

// Err reports the latched append error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close seals, syncs and closes the active segment and latches the store
// shut: every later Append is silently dropped, which is exactly the
// crash model (a killed process's unflushed appends never happened).
// Returns the first append error if one was latched.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.seg != nil {
		s.latch(s.sealLocked())
		s.latch(s.seg.Sync())
		s.latch(s.seg.Close())
		s.seg = nil
	}
	return s.err
}

// truncateSegment cuts a segment file down to size and makes the cut
// durable before Open goes on to create the segment after it.
func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
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
	return syncDir(filepath.Dir(path))
}

// segmentNames lists the directory's segment files in index order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := segmentIndex(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// segmentIndex parses wal-%08d.seg names; ok is false for other files.
func segmentIndex(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "wal-%08d.seg", &idx); err != nil {
		return 0, false
	}
	if fmt.Sprintf("wal-%08d.seg", idx) != name {
		return 0, false
	}
	return idx, true
}
