package machine

import (
	"sync"
	"sync/atomic"
)

// ShardedRecorder is a goroutine-safe recorder: each worker records into its
// own shard of atomic counters (obtained with Handle), and Merge folds the
// shards into one CounterSet after the run. Because every counter is atomic,
// the totals are exact and race-free even if a handle is accidentally shared
// between goroutines; the sharding only exists to keep the common
// single-writer path contention-free.
//
// Occupancy is not tracked: interleaved Load/Store streams from concurrent
// workers have no meaningful joint residency, so merged CounterSets report
// zero Occupancy and PeakOccupancy.
type ShardedRecorder struct {
	levels int
	mu     sync.Mutex
	shards []*Shard
	// shared lazily holds the common shard backing
	// ShardedRecorder.RecordBatch itself. It is an atomic pointer so the
	// steady-state shared path is a single load plus atomic adds — the
	// mutex is only taken once, to publish the shard on first use.
	shared atomic.Pointer[Shard]
}

// NewShardedRecorder builds a recorder for hierarchies with the given number
// of levels.
func NewShardedRecorder(levels int) *ShardedRecorder {
	if levels < 2 {
		panic("machine: a sharded recorder needs at least two levels")
	}
	return &ShardedRecorder{levels: levels}
}

// Handle returns a new shard. The shard is itself a Recorder (touch-
// interested), intended to be attached to one goroutine's Hierarchy or driven
// directly; creating one handle per worker keeps the atomics uncontended.
// Handle is safe to call concurrently.
func (s *ShardedRecorder) Handle() *Shard {
	sh := newShard(s.levels)
	s.mu.Lock()
	s.shards = append(s.shards, sh)
	s.mu.Unlock()
	return sh
}

// initShared publishes the common shard exactly once. Racing callers all
// return the same shard: the winner registers it under the mutex, losers
// re-load it.
func (s *ShardedRecorder) initShared() *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh := s.shared.Load(); sh != nil {
		return sh
	}
	sh := newShard(s.levels)
	s.shards = append(s.shards, sh)
	s.shared.Store(sh)
	return sh
}

// RecordBatch lets the ShardedRecorder itself be attached as a shared
// recorder: it lazily allocates a common shard once, after which the path is
// lock-free (an atomic pointer load per block plus the shard's atomic adds,
// one per touched counter). Per-goroutine handles are still cheaper: they
// skip the pointer load and never contend on the same cache lines.
func (s *ShardedRecorder) RecordBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	sh := s.shared.Load()
	if sh == nil {
		sh = s.initShared()
	}
	sh.RecordBatch(events)
}

// WantsTouch opts the shared path into the per-element stream.
func (s *ShardedRecorder) WantsTouch() bool { return true }

// Merge folds every shard into a fresh CounterSet. Safe to call while
// workers are still recording (the result is then a momentary snapshot).
func (s *ShardedRecorder) Merge() *CounterSet {
	s.mu.Lock()
	shards := append([]*Shard(nil), s.shards...)
	s.mu.Unlock()
	out := NewCounterSet(s.levels)
	for _, sh := range shards {
		for i := 0; i < s.levels-1; i++ {
			out.Iface[i].LoadWords += sh.loadWords[i].Load()
			out.Iface[i].LoadMsgs += sh.loadMsgs[i].Load()
			out.Iface[i].StoreWords += sh.storeWords[i].Load()
			out.Iface[i].StoreMsgs += sh.storeMsgs[i].Load()
			out.Iface[i].RemoteLoadWords += sh.remoteLoadWords[i].Load()
			out.Iface[i].RemoteStoreWords += sh.remoteStoreWords[i].Load()
		}
		for i := 0; i < s.levels; i++ {
			out.Lvl[i].InitWords += sh.initWords[i].Load()
			out.Lvl[i].DiscardWords += sh.discardWords[i].Load()
		}
		out.FlopCount += sh.flops.Load()
		out.TouchReads += sh.touchReads.Load()
		out.TouchWrites += sh.touchWrites.Load()
		out.RemoteTouchReads += sh.remoteTouchReads.Load()
		out.RemoteTouchWrites += sh.remoteTouchWrites.Load()
	}
	return out
}

// Shard is one worker's private atomic counter block: a Recorder whose
// counters can also be read race-free at any time with Counters, which is
// how per-rank live metrics are served while processors still run.
type Shard struct {
	loadWords, loadMsgs               []atomic.Int64 // per interface
	storeWords, storeMsgs             []atomic.Int64
	remoteLoadWords, remoteStoreWords []atomic.Int64 // per interface, inter-socket share
	initWords, discardWords           []atomic.Int64 // per level
	flops                             atomic.Int64
	touchReads, touchWrites           atomic.Int64
	remoteTouchReads                  atomic.Int64
	remoteTouchWrites                 atomic.Int64
}

func newShard(levels int) *Shard {
	return &Shard{
		loadWords:        make([]atomic.Int64, levels-1),
		loadMsgs:         make([]atomic.Int64, levels-1),
		storeWords:       make([]atomic.Int64, levels-1),
		storeMsgs:        make([]atomic.Int64, levels-1),
		remoteLoadWords:  make([]atomic.Int64, levels-1),
		remoteStoreWords: make([]atomic.Int64, levels-1),
		initWords:        make([]atomic.Int64, levels),
		discardWords:     make([]atomic.Int64, levels),
	}
}

// record accumulates one event with atomic adds: RecordBatch's fallback for
// hierarchies deeper than shardBatchLevels.
func (sh *Shard) record(e Event) {
	switch e.Kind {
	case EvLoad:
		sh.loadWords[e.Arg].Add(e.Words)
		sh.loadMsgs[e.Arg].Add(1)
		if e.Remote {
			sh.remoteLoadWords[e.Arg].Add(e.Words)
		}
	case EvStore:
		sh.storeWords[e.Arg].Add(e.Words)
		sh.storeMsgs[e.Arg].Add(1)
		if e.Remote {
			sh.remoteStoreWords[e.Arg].Add(e.Words)
		}
	case EvInit:
		sh.initWords[e.Arg].Add(e.Words)
	case EvDiscard:
		sh.discardWords[e.Arg].Add(e.Words)
	case EvFlops:
		sh.flops.Add(e.Words)
	case EvTouch:
		if e.Write {
			sh.touchWrites.Add(1)
			if e.Remote {
				sh.remoteTouchWrites.Add(1)
			}
		} else {
			sh.touchReads.Add(1)
			if e.Remote {
				sh.remoteTouchReads.Add(1)
			}
		}
	}
}

// shardBatchLevels bounds the stack-allocated accumulators of
// Shard.RecordBatch; deeper hierarchies (none in the repo exceed four levels)
// fall back to per-event atomic adds.
const shardBatchLevels = 8

// RecordBatch accumulates a block into stack-local tallies and commits each
// nonzero counter with a single atomic add. Concurrent readers (Counters,
// Merge) still only ever see committed values — a block is just a coarser
// unit of the same monotone adds — so the momentary-snapshot semantics are
// unchanged; only the per-event atomic traffic is gone.
func (sh *Shard) RecordBatch(events []Event) {
	levels := len(sh.initWords)
	if levels > shardBatchLevels {
		for i := range events {
			sh.record(events[i])
		}
		return
	}
	var lw, lm, sw, sm, rlw, rsw [shardBatchLevels]int64
	var iw, dw [shardBatchLevels]int64
	var flops, tr, tw, rtr, rtw int64
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvLoad:
			lw[e.Arg] += e.Words
			lm[e.Arg]++
			if e.Remote {
				rlw[e.Arg] += e.Words
			}
		case EvStore:
			sw[e.Arg] += e.Words
			sm[e.Arg]++
			if e.Remote {
				rsw[e.Arg] += e.Words
			}
		case EvInit:
			iw[e.Arg] += e.Words
		case EvDiscard:
			dw[e.Arg] += e.Words
		case EvFlops:
			flops += e.Words
		case EvTouch:
			if e.Write {
				tw++
				if e.Remote {
					rtw++
				}
			} else {
				tr++
				if e.Remote {
					rtr++
				}
			}
		}
	}
	for i := 0; i < levels-1; i++ {
		if lm[i] != 0 {
			sh.loadWords[i].Add(lw[i])
			sh.loadMsgs[i].Add(lm[i])
		}
		if rlw[i] != 0 {
			sh.remoteLoadWords[i].Add(rlw[i])
		}
		if sm[i] != 0 {
			sh.storeWords[i].Add(sw[i])
			sh.storeMsgs[i].Add(sm[i])
		}
		if rsw[i] != 0 {
			sh.remoteStoreWords[i].Add(rsw[i])
		}
	}
	for i := 0; i < levels; i++ {
		if iw[i] != 0 {
			sh.initWords[i].Add(iw[i])
		}
		if dw[i] != 0 {
			sh.discardWords[i].Add(dw[i])
		}
	}
	if flops != 0 {
		sh.flops.Add(flops)
	}
	if tr != 0 {
		sh.touchReads.Add(tr)
	}
	if tw != 0 {
		sh.touchWrites.Add(tw)
	}
	if rtr != 0 {
		sh.remoteTouchReads.Add(rtr)
	}
	if rtw != 0 {
		sh.remoteTouchWrites.Add(rtw)
	}
}

// WantsTouch opts shard handles into the per-element stream.
func (sh *Shard) WantsTouch() bool { return true }

// Counters reads the shard's counters into a fresh CounterSet with atomic
// loads: an exact, race-free momentary snapshot of this one worker, safe to
// call from any goroutine while the owner keeps recording. Occupancy fields
// are zero, as everywhere in the sharded path.
func (sh *Shard) Counters() *CounterSet {
	levels := len(sh.initWords)
	out := NewCounterSet(levels)
	for i := 0; i < levels-1; i++ {
		out.Iface[i].LoadWords = sh.loadWords[i].Load()
		out.Iface[i].LoadMsgs = sh.loadMsgs[i].Load()
		out.Iface[i].StoreWords = sh.storeWords[i].Load()
		out.Iface[i].StoreMsgs = sh.storeMsgs[i].Load()
		out.Iface[i].RemoteLoadWords = sh.remoteLoadWords[i].Load()
		out.Iface[i].RemoteStoreWords = sh.remoteStoreWords[i].Load()
	}
	for i := 0; i < levels; i++ {
		out.Lvl[i].InitWords = sh.initWords[i].Load()
		out.Lvl[i].DiscardWords = sh.discardWords[i].Load()
	}
	out.FlopCount = sh.flops.Load()
	out.TouchReads = sh.touchReads.Load()
	out.TouchWrites = sh.touchWrites.Load()
	out.RemoteTouchReads = sh.remoteTouchReads.Load()
	out.RemoteTouchWrites = sh.remoteTouchWrites.Load()
	return out
}
