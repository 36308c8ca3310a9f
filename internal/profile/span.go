package profile

import (
	"writeavoid/internal/machine"
)

// Span is one node of the attribution tree: the events recorded between an
// EvBegin and its matching EvEnd, including everything inside nested spans.
type Span struct {
	Name string
	// Start and End are profiler-clock readings: counts of counter-bearing
	// events (loads, stores, inits, discards, flops, touches) recorded
	// before the span opened and closed. The clock is deterministic —
	// replaying the same program yields the same span boundaries.
	Start, End int64
	// StartTime and EndTime are cost-model seconds at the boundaries when
	// the recorder has a model (SetCostModel); zero otherwise.
	StartTime, EndTime float64
	// Delta is the snapshot of exactly the events inside the span,
	// children included: cum(End) - cum(Start), nothing sampled.
	Delta machine.Snapshot
	// Children are the directly nested spans, in open order.
	Children []*Span

	startSnap machine.Snapshot
	open      bool
}

// Self returns the span's own events: Delta minus the sum of the children's
// deltas. Snapshots are a group under Add/Sub, so Self is exact, and
// Self + Σ children.Delta == Delta counter for counter.
func (s *Span) Self() machine.Snapshot {
	self := s.Delta
	for _, c := range s.Children {
		self = self.Sub(c.Delta)
	}
	return self
}

// Walk visits the span and its subtree depth-first in open order.
func (s *Span) Walk(f func(s *Span, depth int)) { s.walk(f, 0) }

func (s *Span) walk(f func(*Span, int), depth int) {
	f(s, depth)
	for _, c := range s.Children {
		c.walk(f, depth+1)
	}
}

// counterSample is one reading of the cumulative per-interface counters,
// taken at every span boundary; the trace exporter renders the sequence as
// Chrome counter tracks.
type counterSample struct {
	clock int64
	time  float64
	iface []ifaceSample
	flops int64
}

type ifaceSample struct {
	name        string
	load, store int64
}

// SpanRecorder is a machine.Recorder that accumulates every event into a
// cumulative CounterSet (exactly like a StreamRecorder) and, on the
// EvBegin/EvEnd marks the algorithm drivers emit, snapshots the counters
// into a span tree.
//
// Exactness invariant, extending the streaming layer's to trees and pinned
// by tests here and in cmd/wabench: for every span, Self + Σ children.Delta
// equals Delta; and Σ roots.Delta plus the events outside any span
// (Unattributed) equals Total, the recorder's post-hoc snapshot.
//
// Like every synchronous recorder it is not safe for concurrent use: give
// each processor of a distributed machine its own (dist.Config.Observe,
// ProcGroup.Recorder). The geometry grows on demand with generic level
// names, so one recorder can follow hierarchies of different depths.
type SpanRecorder struct {
	machine.Sources
	g       *machine.GrowingCounters
	clock   int64
	roots   []*Span
	stack   []*Span
	samples []counterSample

	model    machine.CostModel
	hasModel bool
	time     float64

	finished bool
}

// NewSpanRecorder builds a recorder seeded with the given level geometry
// (nil or short: grows on demand, starting at two generic levels).
func NewSpanRecorder(levels []machine.Level) *SpanRecorder {
	return &SpanRecorder{g: machine.NewGrowingCounters(levels)}
}

// SetCostModel attaches alpha-beta coefficients so spans carry model time
// (StartTime/EndTime, summed load+store with no write-buffer overlap —
// per-span overlap would not telescope). Events at interfaces beyond the
// model's reach charge zero.
func (r *SpanRecorder) SetCostModel(cm machine.CostModel) {
	r.model = cm
	r.hasModel = true
}

// WantsTouch opts the recorder into the per-element stream so traced runs
// attribute touch counts (and EvRange extents reach heatmaps sharing the
// hierarchy) per span.
func (r *SpanRecorder) WantsTouch() bool { return true }

// WantsSpans declares the recorder's interest in EvBegin/EvEnd marks, which
// turns on Hierarchy.Marking so drivers format span labels.
func (r *SpanRecorder) WantsSpans() bool { return true }

// RecordBatch consumes a block of events in order: marks manage the span
// stack, everything else advances the counters and the clock. It does not
// sync (it is the hierarchy's flush delivery path), so a direct driver that
// shares the recorder with batched hierarchies must order itself after their
// buffered events with Sync, Begin or Mark first.
func (r *SpanRecorder) RecordBatch(events []machine.Event) {
	for i := range events {
		r.record1(events[i])
	}
}

func (r *SpanRecorder) record1(e machine.Event) {
	switch e.Kind {
	case machine.EvBegin:
		r.push(e.Label)
		return
	case machine.EvEnd:
		r.pop()
		return
	case machine.EvRange:
		return // address annotation; carries no counter delta
	}
	r.g.Count(e)
	r.clock++
	if r.hasModel {
		r.charge(e)
	}
}

// Begin opens a span directly (for drivers not routed through a Hierarchy,
// e.g. krylov's Traffic meter or wabench section marks), syncing buffered
// events first so the boundary lands after everything already emitted.
func (r *SpanRecorder) Begin(name string) {
	r.Sync()
	r.push(name)
}

// End closes the innermost open span.
func (r *SpanRecorder) End() {
	r.Sync()
	r.pop()
}

// Mark closes every open span and begins a new top-level one: consecutive
// Marks partition a run into sections. Events buffered in attached
// hierarchies are synced first — no event emitted before the mark is ever
// attributed past it.
func (r *SpanRecorder) Mark(name string) {
	r.Sync()
	for len(r.stack) > 0 {
		r.pop()
	}
	r.push(name)
}

func (r *SpanRecorder) push(name string) {
	s := &Span{
		Name:      name,
		Start:     r.clock,
		StartTime: r.time,
		startSnap: r.g.Snapshot(),
		open:      true,
	}
	if n := len(r.stack); n > 0 {
		parent := r.stack[n-1]
		parent.Children = append(parent.Children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.stack = append(r.stack, s)
	r.sample()
}

func (r *SpanRecorder) pop() {
	n := len(r.stack)
	if n == 0 {
		panic("profile: span End without matching Begin")
	}
	s := r.stack[n-1]
	r.stack = r.stack[:n-1]
	s.End = r.clock
	s.EndTime = r.time
	s.Delta = r.g.Snapshot().Sub(s.startSnap)
	s.open = false
	r.sample()
}

// sample records the cumulative per-interface counters at a span boundary.
func (r *SpanRecorder) sample() {
	cur, levels := r.g.Counters(), r.g.Levels()
	cs := counterSample{clock: r.clock, time: r.time, flops: cur.FlopCount}
	for i := range cur.Iface {
		cs.iface = append(cs.iface, ifaceSample{
			name:  levels[i].Name + "<->" + levels[i+1].Name,
			load:  cur.Iface[i].LoadWords,
			store: cur.Iface[i].StoreWords,
		})
	}
	r.samples = append(r.samples, cs)
}

// charge accumulates cost-model time for one event.
func (r *SpanRecorder) charge(e machine.Event) {
	switch e.Kind {
	case machine.EvLoad:
		if e.Arg < len(r.model.Iface) {
			p := r.model.Iface[e.Arg]
			r.time += p.AlphaLoad + p.BetaLoad*float64(e.Words)
		}
	case machine.EvStore:
		if e.Arg < len(r.model.Iface) {
			p := r.model.Iface[e.Arg]
			r.time += p.AlphaStore + p.BetaStore*float64(e.Words)
		}
	case machine.EvFlops:
		r.time += r.model.PerFlop * float64(e.Words)
	}
}

// Finish syncs buffered events, closes any spans still open (at the current
// clock) and freezes the tree. Idempotent; called by exporters.
func (r *SpanRecorder) Finish() {
	r.Sync()
	for len(r.stack) > 0 {
		r.pop()
	}
	r.finished = true
}

// Roots returns the top-level spans recorded so far (buffered events synced
// first, so closed spans carry their full deltas).
func (r *SpanRecorder) Roots() []*Span {
	r.Sync()
	return r.roots
}

// Clock returns the current event-count clock reading.
func (r *SpanRecorder) Clock() int64 {
	r.Sync()
	return r.clock
}

// Time returns accumulated cost-model seconds (zero without a model).
func (r *SpanRecorder) Time() float64 {
	r.Sync()
	return r.time
}

// Snapshot returns the recorder's cumulative snapshot: the post-hoc totals
// every delta telescopes into. Buffered events are synced first.
func (r *SpanRecorder) Snapshot() machine.Snapshot {
	r.Sync()
	return r.g.Snapshot()
}

// Total is Snapshot under the name the exactness invariant uses.
func (r *SpanRecorder) Total() machine.Snapshot { return r.Snapshot() }

// Unattributed returns the events outside every root span: Total minus the
// root deltas. With marks covering the whole run it is the zero snapshot.
func (r *SpanRecorder) Unattributed() machine.Snapshot {
	r.Sync()
	out := r.g.Snapshot()
	for _, s := range r.roots {
		if !s.open {
			out = out.Sub(s.Delta)
		} else {
			out = out.Sub(r.g.Snapshot().Sub(s.startSnap))
		}
	}
	return out
}
