package machine

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the live-observability layer over the event engine: a
// StreamRecorder attaches to one or more hierarchies like any other Recorder
// and periodically flushes JSON-line records pairing a delta snapshot (events
// since the previous record) with the cumulative snapshot, so a long run can
// be monitored and plotted while it executes instead of only post-hoc. The
// paper's claims are trajectories — writes to slow memory staying flat at
// Θ(output) while loads grow — and the stream is those trajectories on the
// wire.
//
// Exactness invariant (pinned by tests here and in cmd/wabench): the
// counter-wise sum of every record's delta equals the final record's
// cumulative snapshot, which equals the post-hoc snapshot of the same
// counters. Nothing is sampled or rounded; records are just differences of
// exact counters.

// StreamRecord is one JSON line of a metrics stream.
type StreamRecord struct {
	// Seq numbers records from 0 within one stream.
	Seq int64 `json:"seq"`
	// Phase is the label of the phase the delta's events belong to (the
	// label current when the events were recorded, empty before any
	// Phase call).
	Phase string `json:"phase,omitempty"`
	// Events counts the events folded into Delta, when the producer
	// counts events (StreamRecorder does; poll-based producers such as
	// dist aggregate streams report 0 = unknown).
	Events int64 `json:"events,omitempty"`
	// TotalEvents is the running event count across the whole stream.
	TotalEvents int64 `json:"totalEvents,omitempty"`
	// Final marks the closing record of a stream; its Cum is the
	// stream's complete total.
	Final bool `json:"final,omitempty"`
	// Delta is the snapshot of exactly the events since the previous
	// record (or since the start, for the first record).
	Delta Snapshot `json:"delta"`
	// Cum is the cumulative snapshot at emission time.
	Cum Snapshot `json:"cum"`
}

// StreamWriter is the low-level JSONL emitter shared by StreamRecorder and
// poll-based producers (dist.AggregateStream): it sequences records, diffs
// each cumulative snapshot against the previous one, and writes one JSON
// line per record. It is not safe for concurrent use; callers that emit from
// multiple goroutines must serialize.
type StreamWriter struct {
	w       io.Writer
	enc     *json.Encoder
	seq     int64
	prev    Snapshot
	hasPrev bool
	err     error
}

// NewStreamWriter wraps w. Records are written unindented, one per line.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, enc: json.NewEncoder(w)}
}

// Emit writes one record: the cumulative snapshot cum, its delta against the
// previously emitted cumulative snapshot, and the given labels. The first
// emitted record's delta equals its cumulative snapshot. After a write error
// the writer goes inert and keeps returning that first error.
func (sw *StreamWriter) Emit(phase string, events, totalEvents int64, cum Snapshot, final bool) error {
	if sw.err != nil {
		return sw.err
	}
	delta := cum
	if sw.hasPrev {
		delta = cum.Sub(sw.prev)
	}
	rec := StreamRecord{
		Seq:         sw.seq,
		Phase:       phase,
		Events:      events,
		TotalEvents: totalEvents,
		Final:       final,
		Delta:       delta,
		Cum:         cum,
	}
	if err := sw.enc.Encode(rec); err != nil {
		sw.err = fmt.Errorf("machine: stream write: %w", err)
		return sw.err
	}
	sw.seq++
	sw.prev = cum
	sw.hasPrev = true
	return nil
}

// Seq returns the sequence number the next record will carry.
func (sw *StreamWriter) Seq() int64 { return sw.seq }

// Err returns the first write error, if any.
func (sw *StreamWriter) Err() error { return sw.err }

// StreamRecorder is a Recorder that counts events into its own CounterSet
// and flushes StreamRecords to a writer every Every events and on explicit
// Phase marks. Attach it to a Hierarchy (or several, sequentially — the
// counters accumulate across all attached sources, which is how wabench
// streams a whole multi-section run as one trajectory) and Close it when the
// run ends to emit the final cumulative record.
//
// The recorder grows its geometry on demand: observing an event for a level
// or interface beyond the current level list extends it with generically
// named levels ("L2", "L3", ...), so one stream can watch hierarchies of
// different depths. Like every Recorder, it is driven synchronously and is
// not safe for concurrent use; concurrent machines stream through
// dist.Machine's aggregate stream instead.
type StreamRecorder struct {
	Sources
	sw     *StreamWriter
	g      *GrowingCounters
	every  int64
	phase  string
	events int64 // events since the last flush
	total  int64 // events since the start
	closed bool
}

// GenericLevels returns n placeholder levels named "L0".."Ln-1", for streams
// not tied to one hierarchy's geometry.
func GenericLevels(n int) []Level {
	out := make([]Level, n)
	for i := range out {
		out[i] = Level{Name: fmt.Sprintf("L%d", i)}
	}
	return out
}

// NewStreamRecorder builds a recorder flushing to w every `every` events
// (every <= 0 disables periodic flushing, leaving only Phase marks and
// Close). The level list seeds the snapshot geometry and naming; it must
// hold at least two levels.
func NewStreamRecorder(w io.Writer, levels []Level, every int64) *StreamRecorder {
	if len(levels) < 2 {
		panic("machine: a stream recorder needs at least two levels")
	}
	return &StreamRecorder{
		sw:    NewStreamWriter(w),
		g:     NewGrowingCounters(levels),
		every: every,
	}
}

// StreamTo attaches a new StreamRecorder with this hierarchy's geometry to
// the hierarchy and returns it. The caller owns the recorder: call Phase to
// mark sections and Close when done.
func (h *Hierarchy) StreamTo(w io.Writer, every int64) *StreamRecorder {
	s := NewStreamRecorder(w, h.levels, every)
	h.Attach(s)
	return s
}

// RecordBatch accumulates a block of events, flushing a record whenever the
// periodic threshold is reached. Span marks and range annotations carry no
// counter deltas and are not counted as events; phase labels on the stream
// stay under the caller's explicit Phase control (span attribution is the
// profile.SpanRecorder's job). The every-N threshold is checked after each
// event of the block, so an Every smaller than the batch capacity still
// emits one record per N events, with exactly the same deltas, from inside
// the block. Batching moves the moment records are written — delivery
// happens at the hierarchy's flush boundaries — but never which events each
// record covers.
func (s *StreamRecorder) RecordBatch(events []Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvBegin, EvEnd, EvRange:
			continue
		}
		s.g.Count(*e)
		s.events++
		s.total++
		if s.every > 0 && s.events >= s.every {
			s.flush(false)
		}
	}
}

// WantsTouch subscribes the stream to the per-element touch stream so traced
// runs expose read/write touch trajectories too.
func (s *StreamRecorder) WantsTouch() bool { return true }

// Phase syncs any batch-buffered events out of the attached hierarchies (no
// event emitted before the mark is ever deferred past it), flushes the
// pending delta under the current phase label, then switches subsequent
// events to the new label. Consecutive marks with no intervening events do
// not emit empty records.
func (s *StreamRecorder) Phase(name string) {
	s.Sync()
	if s.events > 0 {
		s.flush(false)
	}
	s.phase = name
}

// Flush syncs buffered events and emits a record for any pending ones under
// the current phase.
func (s *StreamRecorder) Flush() {
	s.Sync()
	if s.events > 0 {
		s.flush(false)
	}
}

// Close syncs and flushes pending events and emits the final cumulative
// record. It is idempotent; Err reports any write error encountered over the
// stream's lifetime.
func (s *StreamRecorder) Close() error {
	if !s.closed {
		s.Sync()
		s.closed = true
		s.flush(true)
	}
	return s.sw.Err()
}

// Err returns the first write error, if any.
func (s *StreamRecorder) Err() error { return s.sw.Err() }

// Counters exposes the stream's cumulative counter set (the post-hoc totals
// the final record reports), syncing buffered events first.
func (s *StreamRecorder) Counters() *CounterSet {
	s.Sync()
	return s.g.Counters()
}

// Snapshot returns the stream's current cumulative snapshot, syncing buffered
// events first.
func (s *StreamRecorder) Snapshot() Snapshot {
	s.Sync()
	return s.g.Snapshot()
}

func (s *StreamRecorder) flush(final bool) {
	_ = s.sw.Emit(s.phase, s.events, s.total, s.g.Snapshot(), final)
	s.events = 0
}
