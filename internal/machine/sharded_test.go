package machine

import (
	"sync"
	"testing"
)

// The shared RecordBatch path (the ShardedRecorder attached directly, no
// per-goroutine handles) must stay exact and race-free under concurrent
// writers now that the steady state is a lock-free atomic-pointer load.
// Run with -race.
func TestShardedRecorderSharedPathConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	rec := NewShardedRecorder(3)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// All goroutines hammer the shared path directly.
				rec.RecordBatch([]Event{{Kind: EvLoad, Arg: 1, Words: 2}})
				rec.RecordBatch([]Event{{Kind: EvTouch, Addr: uint64(i), Write: w%2 == 0}})
			}
		}(w)
	}
	wg.Wait()

	got := rec.Merge()
	if want := int64(workers * perW * 2); got.Iface[1].LoadWords != want {
		t.Fatalf("shared-path load words %d want %d", got.Iface[1].LoadWords, want)
	}
	if want := int64(workers * perW); got.Iface[1].LoadMsgs != want {
		t.Fatalf("shared-path load msgs %d want %d", got.Iface[1].LoadMsgs, want)
	}
	if got.TouchWrites+got.TouchReads != int64(workers*perW) {
		t.Fatalf("touches %d want %d", got.TouchWrites+got.TouchReads, workers*perW)
	}
}

// Mixing the shared path with per-goroutine handles merges every shard once:
// the lazily published shared shard registers itself exactly one time even
// when many goroutines race to initialize it.
func TestShardedRecorderSharedPathSingleShard(t *testing.T) {
	const workers = 16
	rec := NewShardedRecorder(2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec.RecordBatch([]Event{{Kind: EvFlops, Words: 1}}) // all race on first use
			h := rec.Handle()
			h.RecordBatch([]Event{{Kind: EvFlops, Words: 10}})
		}()
	}
	close(start)
	wg.Wait()
	if got, want := rec.Merge().FlopCount, int64(workers*11); got != want {
		t.Fatalf("flops %d want %d (shared shard double-registered?)", got, want)
	}
}
