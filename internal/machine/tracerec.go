package machine

// AddrSink consumes a per-element address trace. It is satisfied structurally
// by access.Sink implementations (internal/access, internal/cache) without
// this package importing them.
type AddrSink interface {
	Access(addr uint64, write bool)
}

// TraceRecorder bridges the hierarchy's EvTouch stream to an address-trace
// sink such as a cache simulator. Attach one to a Hierarchy and the counted
// algorithm drivers double as trace emitters; detach it (or never attach one)
// and the per-element fast path disappears entirely.
//
// The sink is external state the recorder cannot guard: with the batched
// engine, call Sync (or flush/detach the hierarchy) before reading simulator
// results, or the tail of the trace may still sit in the event buffer.
type TraceRecorder struct {
	Sources
	Sink AddrSink
}

// NewTraceRecorder wraps sink as a touch-interested recorder.
func NewTraceRecorder(sink AddrSink) *TraceRecorder {
	return &TraceRecorder{Sink: sink}
}

// RecordBatch forwards the block's element accesses in order and ignores
// every other event.
func (t *TraceRecorder) RecordBatch(events []Event) {
	for i := range events {
		if events[i].Kind == EvTouch {
			t.Sink.Access(events[i].Addr, events[i].Write)
		}
	}
}

// WantsTouch opts into the per-element stream.
func (t *TraceRecorder) WantsTouch() bool { return true }
