package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// chunkEvents is how many appended events a store hands its worker at
// once: few enough that the chunks in flight cost little memory (512
// engine.Events are ≈ 120 KB), enough that a hand-off is rare.
const chunkEvents = 512

// queueChunks is how many full chunks may wait for the worker: 2 048
// events, about what the durable workload appends while the worker writes
// one snapshot, so the dispatcher seldom waits (with half that room it
// waited enough to lose throughput). An Append that needs a fresh chunk
// while all of a store's are taken waits for the worker to free one. That
// is the back-pressure bounding both the fold's lag and the chunks'
// memory.
const queueChunks = 4

// ownedChunks is how many chunks a store makes at most: the queue's, the
// one Append fills and the one the worker folds.
const ownedChunks = queueChunks + 2

// chunk is a run of appended events on its way to the worker, in append
// order. A positive cover makes it a snapshot chunk: it ends where the
// dispatcher rotated to segment cover, and once it is folded the worker
// writes the fold as a snapshot covering the segments below cover. A sync
// chunk is a drain: the worker reports on worker.synced once it has
// folded it, and everything before it.
type chunk struct {
	events []engine.Event
	cover  int
	sync   bool
}

// worker is what a store's worker goroutine owns, apart from the fold and
// the snapshot stream: its queue, the chunks it hands back, and its meter.
type worker struct {
	queue  chan *chunk   // nil until the first hand-off starts the goroutine
	free   chan *chunk   // folded chunks, for Append to fill again
	synced chan struct{} // one send per sync chunk; closed as the goroutine returns
	made   int           // chunks allocated (by Append, under Store.mu)

	// Append's waits for a free chunk (under Store.mu).
	waited   uint64
	waitTime time.Duration

	// What the worker did, and its first error (under mu). Snapshot and
	// AttachResolved add their snapshot here too, on their own goroutine.
	mu            sync.Mutex
	chunks        uint64
	busy          time.Duration
	snapshots     uint64
	snapshotBytes uint64
	err           error

	// step, when set (by tests, before the first hand-off), is called at
	// each point of a snapshot where a crash leaves a distinct directory.
	step func(point string)
}

// at calls the step hook, if any, at point.
func (w *worker) at(point string) {
	if w.step != nil {
		w.step(point)
	}
}

// Stats is a store's meter: what its worker did, and how long Append
// waited for it. Snapshots, SnapshotBytes and Chunks follow from the event
// stream and the calls made on the store; Busy, Waited and WaitTime
// depend on timing.
type Stats struct {
	// Snapshots counts the snapshots written, by the worker or by
	// Snapshot and AttachResolved; SnapshotBytes is their total size.
	Snapshots     uint64
	SnapshotBytes uint64
	// Chunks counts the non-empty chunks of appended events the worker
	// folded: one each chunkEvents events, each snapshot and each drain
	// that found events not yet handed over. Busy is the wall time it
	// spent folding them and writing the snapshots they ended in.
	Chunks uint64
	Busy   time.Duration
	// Waited counts the Append calls that found every chunk taken and
	// waited for the worker to fold one; WaitTime is their total wait.
	Waited   uint64
	WaitTime time.Duration
}

func (st Stats) String() string {
	return fmt.Sprintf("wal: %d snapshots, %d bytes; %d chunks folded, %v busy; %d appends waited for the fold, %v in all",
		st.Snapshots, st.SnapshotBytes, st.Chunks, st.Busy, st.Waited, st.WaitTime)
}

// Stats reads the store's meter. It does not wait for the worker: what
// it has yet to fold is not counted.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Waited: s.w.waited, WaitTime: s.w.waitTime}
	s.mu.Unlock()
	w := &s.w
	w.mu.Lock()
	defer w.mu.Unlock()
	st.Snapshots, st.SnapshotBytes = w.snapshots, w.snapshotBytes
	st.Chunks, st.Busy = w.chunks, w.busy
	return st
}

// nextChunk returns an empty chunk for Append to fill: a folded one, a
// new one while the store owns fewer than its quota, or else the next one
// the worker folds, waited for. Caller holds s.mu, and waits holding it:
// the worker never takes it, and later appends must queue behind this one
// to keep their order.
func (s *Store) nextChunk() *chunk {
	w := &s.w
	select {
	case c := <-w.free:
		return c
	default:
	}
	if w.made < ownedChunks {
		w.made++
		return &chunk{events: make([]engine.Event, 0, chunkEvents)}
	}
	begin := time.Now()
	c := <-w.free
	w.waited++
	w.waitTime += time.Since(begin)
	return c
}

// handOffLocked hands the chunk Append has been filling (an empty one if
// none) to the worker, starting the worker on the first hand-off, and
// latches an error the worker has met since. Caller holds s.mu.
func (s *Store) handOffLocked(cover int, sync bool) {
	w := &s.w
	c := s.cur
	if c == nil {
		c = s.nextChunk()
	}
	s.cur = nil
	c.cover, c.sync = cover, sync
	if w.queue == nil {
		// Room for every chunk the store owns: a send never blocks.
		w.queue = make(chan *chunk, ownedChunks)
		w.free = make(chan *chunk, ownedChunks)
		w.synced = make(chan struct{})
		go s.work(w.queue, w.free, w.synced)
	}
	w.queue <- c
	s.latch(w.failed())
}

// drainLocked waits until the worker has folded every event appended so
// far and written every snapshot handed to it. From then until the next
// hand-off, live, its slab and the snapshot stream are the caller's, who
// holds s.mu (and waits holding it, as nextChunk does). A store whose
// worker never started and that holds no event for it, or a closed one,
// has nothing to wait for.
func (s *Store) drainLocked() {
	if s.w.queue == nil && (s.cur == nil || len(s.cur.events) == 0) {
		return
	}
	s.handOffLocked(0, true)
	<-s.w.synced
	s.latch(s.w.failed())
}

// stopLocked drains the worker, waits for its goroutine to end and drops
// the chunks, which a closed store never fills again. Caller holds s.mu.
func (s *Store) stopLocked() {
	s.drainLocked()
	if s.w.queue != nil {
		close(s.w.queue)
		<-s.w.synced // closed as the worker returns
		s.w.queue, s.w.free, s.w.synced, s.w.made = nil, nil, nil, 0
	}
}

// failed returns the first error the worker met.
func (w *worker) failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// work is the worker goroutine: fold each chunk into live, in hand-off
// order, and write the snapshot a chunk ends in; hand each chunk back on
// free, and signal synced after a sync chunk and, closing it, on return.
// A failed snapshot latches, leaving the log it would have replaced whole,
// and the fold goes on.
func (s *Store) work(queue <-chan *chunk, free chan<- *chunk, synced chan<- struct{}) {
	defer close(synced)
	w := &s.w
	for c := range queue {
		begin := time.Now()
		for i := range c.events {
			s.live.apply(&c.events[i], &s.slab)
		}
		n := len(c.events)
		clear(c.events) // drop the events' references before the chunk waits
		c.events = c.events[:0]
		var err error
		if c.cover > 0 {
			w.at("fold")
			if err = s.writeSnapshot(c.cover); err == nil {
				err = s.dropCovered(c.cover)
			}
		}
		busy := time.Since(begin)
		w.mu.Lock()
		if n > 0 {
			w.chunks++
		}
		w.busy += busy
		if w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
		sync := c.sync
		free <- c
		if sync {
			synced <- struct{}{}
		}
	}
}

// writeSnapshot writes live as the snapshot covering the segments below
// cover and meters it. It runs on the worker, or on a caller that has
// drained it.
func (s *Store) writeSnapshot(cover int) error {
	if err := writeSnapshot(s.opts.Dir, s.live, cover, &s.snap, s.w.at); err != nil {
		return err
	}
	w := &s.w
	w.mu.Lock()
	w.snapshots++
	w.snapshotBytes += uint64(frameHeader + s.snap.n)
	w.mu.Unlock()
	return nil
}

// dropCovered unlinks the segments below cover, which a durable snapshot
// covers, oldest first.
func (s *Store) dropCovered(cover int) error {
	names, err := segmentNames(s.opts.Dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if idx, _ := segmentIndex(name); idx >= cover {
			break
		}
		if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
			return err
		}
		s.w.at("unlink")
	}
	return nil
}
