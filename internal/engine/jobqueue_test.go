package engine

import (
	"sync"
	"testing"
)

// TestJobQueueUnboundedNeverBlocks: a push returns at once however far the
// consumers are behind (the clearing tick pushes while holding the clock),
// jobs come out in push order, and a closed queue drains before pop reports
// false.
func TestJobQueueUnboundedNeverBlocks(t *testing.T) {
	var q jobQueue
	q.init()
	const n = 100_000 // past the 65 536 the fixed-size channel held
	for i := 0; i < n; i++ {
		q.push(&job{swapID: swapTag(uint64(i))})
	}
	q.close()
	for i := 0; i < n; i++ {
		j, ok := q.pop()
		if !ok || j.swapID != swapTag(uint64(i)) {
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

// TestJobQueueHandsEveryJobOverOnce: concurrent producers and consumers hand
// every job over exactly once.
func TestJobQueueHandsEveryJobOverOnce(t *testing.T) {
	var q jobQueue
	q.init()
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
				if _, dup := seen.LoadOrStore(j.swapID, true); dup {
					t.Errorf("job %s popped twice", j.swapID)
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		producing.Add(1)
		go func() {
			defer producing.Done()
			for i := 0; i < each; i++ {
				q.push(&job{swapID: swapTag(uint64(p*each + i))})
			}
		}()
	}
	producing.Wait()
	q.close()
	consumers.Wait()
	count := 0
	seen.Range(func(any, any) bool { count++; return true })
	if want := producers * each; count != want {
		t.Errorf("%d jobs came out, want %d", count, want)
	}
}
