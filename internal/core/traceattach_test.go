package core

import (
	"reflect"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// attachable is a simulator tracePlan can attach directly.
type attachable interface {
	cache.Simulator
	machine.Recorder
	machine.TouchInterest
}

// attachableSims builds one of each simulator that consumes event batches:
// the FALRU, the set-associative cache under every policy, and a 3-level
// hierarchy. Each is small enough for the traces below to evict dirty lines.
func attachableSims() map[string]func() attachable {
	sims := map[string]func() attachable{
		"falru": func() attachable { return cache.NewFALRU(8*1024, lineB) },
		"hier3": func() attachable {
			return cache.NewHierarchy(
				cache.Config{SizeBytes: 1024, LineBytes: lineB, Assoc: 4, Policy: cache.PolicyLRU},
				cache.Config{SizeBytes: 4 * 1024, LineBytes: lineB, Assoc: 8, Policy: cache.PolicyPLRU},
				cache.Config{SizeBytes: 8 * 1024, LineBytes: lineB, Assoc: 16, Policy: cache.PolicyClock3})
		},
	}
	for _, pol := range []cache.PolicyKind{cache.PolicyLRU, cache.PolicyClock3, cache.PolicyFIFO,
		cache.PolicyPLRU, cache.PolicyRandom} {
		sims["cache-"+pol.String()] = func() attachable {
			return cache.New(cache.Config{SizeBytes: 8 * 1024, LineBytes: lineB, Assoc: 8, Policy: pol, Seed: 3})
		}
	}
	return sims
}

// levelStats lists a simulator's counters, every level of a hierarchy.
func levelStats(s cache.Simulator) []cache.Stats {
	h, ok := s.(*cache.Hierarchy)
	if !ok {
		return []cache.Stats{s.Stats()}
	}
	var out []cache.Stats
	for i := 0; i < h.NumLevels(); i++ {
		out = append(out, h.Level(i).Stats())
	}
	return out
}

// TestDirectAttachMatchesTraceRecorder replays every trace façade into each
// attachable simulator attached to the hierarchy directly, consuming event
// batches, and into one behind access.SinkFunc, which tracePlan wraps in a
// machine.TraceRecorder. The two paths must leave identical counters at
// every level, before and after the final flush.
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
		for name, mk := range attachableSims() {
			direct, wrapped := mk(), mk()
			tc.run(direct)
			tc.run(access.SinkFunc(wrapped.Access))
			if d, w := levelStats(direct), levelStats(wrapped); !reflect.DeepEqual(d, w) {
				t.Errorf("%s/%s: direct %+v, TraceRecorder %+v", tc.name, name, d, w)
			}
			if direct.Stats().VictimsM == 0 {
				t.Errorf("%s/%s: no write-backs before the flush, cache too large to test eviction", tc.name, name)
			}
			direct.FlushDirty()
			wrapped.FlushDirty()
			if d, w := levelStats(direct), levelStats(wrapped); !reflect.DeepEqual(d, w) {
				t.Errorf("%s/%s after flush: direct %+v, TraceRecorder %+v", tc.name, name, d, w)
			}
		}
	}
}

// TestTraceRecorderOnlyWrapsPlainSinks pins which sinks tracePlan attaches
// as they are.
func TestTraceRecorderOnlyWrapsPlainSinks(t *testing.T) {
	for name, mk := range attachableSims() {
		s := mk()
		if r := traceRecorder(s); r != machine.Recorder(s) {
			t.Fatalf("%s attached as %T, want itself", name, r)
		}
	}
	fa := cache.NewFALRU(1024, lineB)
	if _, ok := traceRecorder(access.SinkFunc(fa.Access)).(*machine.TraceRecorder); !ok {
		t.Fatal("a plain sink must be wrapped in a TraceRecorder")
	}
}
