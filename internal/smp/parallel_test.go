package smp

import (
	"sync/atomic"
	"testing"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// The parallel replay's merged touch totals equal the serial round-robin
// replay's access counts, however the goroutines interleave.
func TestRunParallelMatchesSerialTotals(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	sched := DepthFirst(tasks, 4)

	llc := cache.NewFALRU(1<<20, lineB)
	serial, err := Run(llc, sched, 64)
	if err != nil {
		t.Fatal(err)
	}

	rec := machine.NewShardedRecorder(2)
	par, err := RunParallel(sched, rec)
	if err != nil {
		t.Fatal(err)
	}
	if par.TasksRun != serial.TasksRun {
		t.Fatalf("parallel ran %d tasks, serial %d", par.TasksRun, serial.TasksRun)
	}
	if par.AccessesRun != serial.AccessesRun {
		t.Fatalf("parallel ran %d accesses, serial %d", par.AccessesRun, serial.AccessesRun)
	}
	cs := rec.Merge()
	if got := cs.TouchReads + cs.TouchWrites; got != serial.AccessesRun {
		t.Fatalf("merged touches %d != serial accesses %d", got, serial.AccessesRun)
	}
	var writes int64
	for _, q := range sched.Queues {
		for _, task := range q {
			for _, op := range task.Ops {
				if op.Write {
					writes++
				}
			}
		}
	}
	if cs.TouchWrites != writes {
		t.Fatalf("merged writes %d != schedule writes %d", cs.TouchWrites, writes)
	}
}

// Counting is schedule-independent: depth-first and breadth-first move the
// same accesses, so the parallel totals agree even though the cache behavior
// (what Run measures) differs drastically.
func TestRunParallelScheduleIndependentTotals(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	totals := func(s Schedule) (int64, int64) {
		rec := machine.NewShardedRecorder(2)
		if _, err := RunParallel(s, rec); err != nil {
			t.Fatal(err)
		}
		cs := rec.Merge()
		return cs.TouchReads, cs.TouchWrites
	}
	dr, dw := totals(DepthFirst(tasks, 3))
	br, bw := totals(BreadthFirst(tasks, 5))
	if dr != br || dw != bw {
		t.Fatalf("totals depend on schedule: (%d,%d) vs (%d,%d)", dr, dw, br, bw)
	}
}

func TestRunParallelNeedsRecorder(t *testing.T) {
	if _, err := RunParallel(Schedule{}, nil); err == nil {
		t.Fatal("want error for nil recorder")
	}
}

// sharedOnly hides a ShardedRecorder's Handle method so RunParallel's
// workers all drive the recorder's shared RecordBatch path — the path that
// is lock-free behind an atomic pointer. Run with -race: this is the
// regression test for concurrent shared-path recording on real task traces,
// and the totals must still be exact.
type sharedOnly struct{ rec *machine.ShardedRecorder }

func (s sharedOnly) RecordBatch(es []machine.Event) { s.rec.RecordBatch(es) }

func TestRunParallelSharedRecorderPath(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	sched := DepthFirst(tasks, 8)

	rec := machine.NewShardedRecorder(2)
	par, err := RunParallel(sched, sharedOnly{rec})
	if err != nil {
		t.Fatal(err)
	}
	cs := rec.Merge()
	if got := cs.TouchReads + cs.TouchWrites; got != par.AccessesRun {
		t.Fatalf("shared-path touches %d != accesses %d", got, par.AccessesRun)
	}

	// A bare ShardedRecorder takes the per-worker handle path (pinned by
	// TestRunParallelUsesOneHandlePerWorker); both paths count identically.
	rec2 := machine.NewShardedRecorder(2)
	if _, err := RunParallel(sched, rec2); err != nil {
		t.Fatal(err)
	}
	cs2 := rec2.Merge()
	if cs.TouchReads != cs2.TouchReads || cs.TouchWrites != cs2.TouchWrites {
		t.Fatalf("shared path (%d,%d) != handle path (%d,%d)",
			cs.TouchReads, cs.TouchWrites, cs2.TouchReads, cs2.TouchWrites)
	}
}

// countingHandles is a ShardedRecorder whose Handle counts its calls, so a
// test can see whether RunParallel took the per-worker handle path.
type countingHandles struct {
	*machine.ShardedRecorder
	calls atomic.Int64
}

func (c *countingHandles) Handle() *machine.Shard {
	c.calls.Add(1)
	return c.ShardedRecorder.Handle()
}

// A recorder offering per-worker handles gets exactly one Handle call per
// worker, and the merged totals still count every access.
func TestRunParallelUsesOneHandlePerWorker(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	sched := DepthFirst(tasks, 4)

	rec := &countingHandles{ShardedRecorder: machine.NewShardedRecorder(2)}
	par, err := RunParallel(sched, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.calls.Load(), int64(len(sched.Queues)); got != want {
		t.Fatalf("Handle called %d times for %d workers", got, want)
	}
	cs := rec.Merge()
	if got := cs.TouchReads + cs.TouchWrites; got != par.AccessesRun {
		t.Fatalf("handle-path touches %d != accesses %d", got, par.AccessesRun)
	}
}

// A worker's emit loop — append to its private batch, deliver the full
// batch to its shard handle, reset — allocates nothing per batch.
func TestWorkerBatchIntoShardAllocatesNothing(t *testing.T) {
	var h machine.Recorder = machine.NewShardedRecorder(2).Handle()
	eb := machine.NewEventBatch(machine.DefaultBatchEvents)
	task := []machine.Event{{Kind: machine.EvBegin, Label: "task"}}
	for i := 0; i < machine.DefaultBatchEvents-2; i++ {
		task = append(task, machine.Event{Kind: machine.EvTouch, Addr: uint64(i) * 8, Write: i%3 == 0})
	}
	task = append(task, machine.Event{Kind: machine.EvEnd})
	worker := func() {
		for _, e := range task {
			if eb.Append(e) {
				h.RecordBatch(eb.Events())
				eb.Reset()
			}
		}
	}
	if avg := testing.AllocsPerRun(100, worker); avg != 0 {
		t.Fatalf("worker batch into a shard allocates %.1f per batch, want 0", avg)
	}
}
