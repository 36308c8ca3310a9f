package cache_test

import (
	"math/rand"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/core"
	"writeavoid/internal/machine"
)

func feedTouches(r *cache.BeladyRecorder, ops []access.Op) {
	for _, op := range ops {
		r.RecordBatch([]machine.Event{{Kind: machine.EvTouch, Addr: op.Addr, Write: op.Write}})
	}
}

func TestBeladyRecorderMatchesSimulateOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := make([]access.Op, 5000)
	for i := range ops {
		ops[i] = access.Op{Addr: uint64(rng.Intn(96)) * 64, Write: rng.Intn(3) == 0}
	}
	rec := cache.NewBeladyRecorder(32*64, 64)
	feedTouches(rec, ops)
	if rec.Len() != len(ops) {
		t.Fatalf("buffered %d ops, want %d", rec.Len(), len(ops))
	}
	if got, want := rec.Stats(), cache.SimulateOPT(ops, 32*64, 64); got != want {
		t.Fatalf("recorder stats %+v != SimulateOPT %+v", got, want)
	}

	// More touches invalidate the cached replay.
	more := []access.Op{{Addr: 0, Write: true}, {Addr: 12345 * 64}, {Addr: 0}}
	feedTouches(rec, more)
	all := append(append([]access.Op(nil), ops...), more...)
	if got, want := rec.Stats(), cache.SimulateOPT(all, 32*64, 64); got != want {
		t.Fatalf("stats after growth %+v != SimulateOPT %+v", got, want)
	}

	// Address-free events carry no trace.
	rec.RecordBatch([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: 10}})
	rec.RecordBatch([]machine.Event{{Kind: machine.EvBegin, Label: "x"}})
	rec.RecordBatch([]machine.Event{{Kind: machine.EvEnd}})
	if rec.Len() != len(all) {
		t.Errorf("non-touch events changed the buffer: %d ops, want %d", rec.Len(), len(all))
	}
}

// Attached to a traced run, the recorder sees the byte-addressed touch
// stream unscaled: its ideal-cache stats equal an explicit SimulateOPT over
// the same trace collected by an access.Recorder.
func TestBeladyRecorderOnMatMulTrace(t *testing.T) {
	const n, b = 16, 4
	const size, line = 3 * b * b * 8, 8
	tr := core.NewMatMulTrace(n, n, n, line, core.TraceLevel{Block: b, ContractionInner: true})
	var collected access.Recorder
	rec := cache.NewBeladyRecorder(size, line)
	tr.Run(access.SinkFunc(func(addr uint64, write bool) {
		collected.Access(addr, write)
		rec.RecordBatch([]machine.Event{{Kind: machine.EvTouch, Addr: addr, Write: write}})
	}))
	if rec.Len() == 0 {
		t.Fatal("trace emitted no touches")
	}
	want := cache.SimulateOPT(collected.Ops, size, line)
	got := rec.Stats()
	if got != want {
		t.Fatalf("recorder stats %+v != SimulateOPT %+v", got, want)
	}
	// Belady never writes back less than the output size (Proposition 6.1
	// applies to any replacement policy).
	if got.VictimsM < n*n {
		t.Errorf("ideal write-backs %d below output size %d", got.VictimsM, n*n)
	}
}
