package engine

import (
	"sync"
	"testing"
	"time"
)

// TestJobQueueUnboundedNeverBlocks: with no limit — the virtual-time
// shape — a push returns at once however far the consumers are behind
// (the clearing tick pushes while holding the virtual clock), jobs come
// out in push order, and a closed queue drains before pop reports false.
func TestJobQueueUnboundedNeverBlocks(t *testing.T) {
	var q jobQueue
	q.init(0)
	const n = 100_000 // past the 65 536 the fixed-size channel held
	for i := 0; i < n; i++ {
		q.push(&job{seq: uint64(i)})
	}
	q.close()
	for i := 0; i < n; i++ {
		j, ok := q.pop()
		if !ok || j.seq != uint64(i) {
			t.Fatalf("pop %d returned %v, %v", i, j, ok)
		}
	}
	if j, ok := q.pop(); ok {
		t.Fatalf("pop after drain returned %v", j)
	}
	if cap(q.jobs) == 0 || len(q.jobs) != 0 {
		t.Fatalf("drained queue holds %d jobs", len(q.jobs))
	}
}

// TestJobQueueBoundedBackpressure: with a limit — the real-time shape — a
// push past it waits for a pop, and concurrent producers and consumers
// hand every job over exactly once.
func TestJobQueueBoundedBackpressure(t *testing.T) {
	var q jobQueue
	q.init(2)
	q.push(&job{seq: 1})
	q.push(&job{seq: 2})
	pushed := make(chan struct{})
	go func() {
		q.push(&job{seq: 3})
		close(pushed)
	}()
	select {
	case <-pushed:
		t.Fatal("push past the limit did not wait")
	case <-time.After(20 * time.Millisecond):
	}
	if j, _ := q.pop(); j.seq != 1 {
		t.Fatalf("popped %d, want 1", j.seq)
	}
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("push did not resume after a pop made room")
	}

	const producers, each = 4, 500
	var seen sync.Map
	var consumers, producing sync.WaitGroup
	for w := 0; w < 3; w++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				if _, dup := seen.LoadOrStore(j.seq, true); dup {
					t.Errorf("job %d popped twice", j.seq)
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		producing.Add(1)
		go func() {
			defer producing.Done()
			for i := 0; i < each; i++ {
				q.push(&job{seq: uint64(1000 + p*each + i)})
			}
		}()
	}
	producing.Wait()
	q.close()
	consumers.Wait()
	count := 0
	seen.Range(func(any, any) bool { count++; return true })
	if want := 2 + producers*each; count != want {
		t.Errorf("%d jobs came out, want %d", count, want)
	}
}
