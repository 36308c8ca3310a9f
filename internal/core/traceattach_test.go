package core

import (
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// TestDirectAttachMatchesTraceRecorder replays every trace façade into a
// cache.FALRU attached to the hierarchy directly, consuming event batches,
// and into one behind access.SinkFunc, which tracePlan wraps in a
// machine.TraceRecorder. The two paths must leave identical counters, before
// and after the final flush.
func TestDirectAttachMatchesTraceRecorder(t *testing.T) {
	levels := func(inner bool) []TraceLevel {
		return []TraceLevel{{Block: 32, ContractionInner: true}, {Block: 16, ContractionInner: inner},
			{Block: 8, ContractionInner: inner}}
	}
	for _, tc := range []struct {
		name string
		run  func(access.Sink)
	}{
		{"matmul-wa-3level", NewMatMulTrace(96, 40, 80, lineB, levels(true)...).Run},
		{"matmul-nonwa-3level", NewMatMulTrace(96, 40, 80, lineB, levels(false)...).Run},
		{"trsm", NewTRSMTrace(64, 48, 16, lineB).Run},
		{"cholesky", NewCholeskyTrace(64, 16, lineB).Run},
		{"co-matmul", NewCOMatMulTrace(96, 40, 80, 8, lineB).Run},
	} {
		direct := cache.NewFALRU(8*1024, lineB)
		wrapped := cache.NewFALRU(8*1024, lineB)
		tc.run(direct)
		tc.run(access.SinkFunc(wrapped.Access))
		if direct.Stats() != wrapped.Stats() {
			t.Errorf("%s: direct %+v, TraceRecorder %+v", tc.name, direct.Stats(), wrapped.Stats())
		}
		if direct.Stats().VictimsM == 0 {
			t.Errorf("%s: no write-backs before the flush, cache too large to test eviction", tc.name)
		}
		direct.FlushDirty()
		wrapped.FlushDirty()
		if direct.Stats() != wrapped.Stats() {
			t.Errorf("%s after flush: direct %+v, TraceRecorder %+v", tc.name, direct.Stats(), wrapped.Stats())
		}
	}
}

// TestTraceRecorderOnlyWrapsPlainSinks pins which sinks tracePlan attaches
// as they are.
func TestTraceRecorderOnlyWrapsPlainSinks(t *testing.T) {
	fa := cache.NewFALRU(1024, lineB)
	if r := traceRecorder(fa); r != machine.Recorder(fa) {
		t.Fatalf("FALRU attached as %T, want itself", r)
	}
	if _, ok := traceRecorder(access.SinkFunc(fa.Access)).(*machine.TraceRecorder); !ok {
		t.Fatal("a plain sink must be wrapped in a TraceRecorder")
	}
}
