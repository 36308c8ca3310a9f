package machine

// Tee fans one event stream out to several recorders behind a single
// attachment point. It exists for the places that accept exactly one
// Recorder per slot — dist.Config.Observe hands each rank one observer, the
// wabench bench harness passes one recorder into every workload — but a run
// wants two sinks there (a span recorder for attribution and a flight
// recorder for forensics, say). A Hierarchy could simply Attach both, so a
// Tee is never needed where the caller owns the hierarchy.
//
// The tee preserves the engine's delivery contracts exactly:
//
//   - RecordBatch forwards the caller's slice to every child within the
//     call (children must not retain it, same as any Recorder), so a batch
//     still costs one dispatch per child, not one per event.
//   - Touch and span interest are the union of the children's: the tee asks
//     for the denser streams iff some child would, and children that did not
//     ask still receive them — the same over-delivery any multi-recorder
//     Hierarchy attachment produces when interests differ is avoided here
//     only at the whole-tee granularity, which callers control by grouping
//     like-interested recorders.
//   - Dirty-source notifications fan out to every BatchAware child, so each
//     child's Sync still flushes exactly the hierarchies with pending
//     events for it.
type tee struct {
	rs []Recorder
}

// Tee combines recorders into one. Nil entries are dropped; zero or one
// (non-nil) recorders return nil or the recorder itself, so callers can
// build the slot unconditionally.
func Tee(rs ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &tee{rs: kept}
}

// RecordBatch forwards the block to every child in order.
func (t *tee) RecordBatch(events []Event) {
	for _, r := range t.rs {
		r.RecordBatch(events)
	}
}

// WantsTouch reports whether any child wants the per-element touch stream.
func (t *tee) WantsTouch() bool {
	for _, r := range t.rs {
		if ti, ok := r.(TouchInterest); ok && ti.WantsTouch() {
			return true
		}
	}
	return false
}

// WantsSpans reports whether any child builds span attribution.
func (t *tee) WantsSpans() bool {
	for _, r := range t.rs {
		if si, ok := r.(SpanInterest); ok && si.WantsSpans() {
			return true
		}
	}
	return false
}

// SourceDirty forwards the dirty-source notification to every BatchAware
// child.
func (t *tee) SourceDirty(f Flusher) {
	for _, r := range t.rs {
		if ba, ok := r.(BatchAware); ok {
			ba.SourceDirty(f)
		}
	}
}

// SourceClean forwards the drained notification to every BatchAware child.
func (t *tee) SourceClean(f Flusher) {
	for _, r := range t.rs {
		if ba, ok := r.(BatchAware); ok {
			ba.SourceClean(f)
		}
	}
}
