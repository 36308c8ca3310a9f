package machine

import "fmt"

// GrowingCounters is the grow-on-demand counter core shared by every
// recorder that follows hierarchies of unknown depth: a CounterSet plus a
// level list that both extend themselves (with generically named levels
// "L2", "L3", ...) whenever an event addresses a level or interface beyond
// the geometry seen so far. StreamRecorder, profile.SpanRecorder and
// monitor.Monitor all embed one so a single recorder can observe a whole
// multi-section run across hierarchies of different shapes.
//
// Like CounterSet it is plain state driven synchronously; callers that read
// it from other goroutines must serialize.
type GrowingCounters struct {
	levels []Level
	cur    *CounterSet
}

// NewGrowingCounters seeds the geometry with the given levels (nil or a
// single level: starts at two generic levels). The slice is copied.
func NewGrowingCounters(levels []Level) *GrowingCounters {
	if len(levels) < 2 {
		levels = GenericLevels(2)
	}
	return &GrowingCounters{
		levels: append([]Level(nil), levels...),
		cur:    NewCounterSet(len(levels)),
	}
}

// Count grows the geometry to fit e and accumulates it. Span marks and
// range annotations carry no counter delta and are ignored, so callers that
// care about them (span recorders) handle those kinds before delegating.
func (g *GrowingCounters) Count(e Event) {
	switch e.Kind {
	case EvBegin, EvEnd, EvRange:
		return
	}
	g.grow(e)
	g.cur.record(e)
}

// grow extends the level list and counter set so an event addressing a
// deeper level or interface than seen so far stays in range: interface i
// spans levels i and i+1, a level event needs level i itself.
func (g *GrowingCounters) grow(e Event) {
	var needLevels int
	switch e.Kind {
	case EvLoad, EvStore:
		needLevels = e.Arg + 2
	case EvInit, EvDiscard:
		needLevels = e.Arg + 1
	default:
		return
	}
	if needLevels <= len(g.levels) {
		return
	}
	for i := len(g.levels); i < needLevels; i++ {
		g.levels = append(g.levels, Level{Name: fmt.Sprintf("L%d", i)})
	}
	grown := NewCounterSet(len(g.levels))
	copy(grown.Iface, g.cur.Iface)
	copy(grown.Lvl, g.cur.Lvl)
	grown.FlopCount = g.cur.FlopCount
	grown.TouchReads = g.cur.TouchReads
	grown.TouchWrites = g.cur.TouchWrites
	grown.RemoteTouchReads = g.cur.RemoteTouchReads
	grown.RemoteTouchWrites = g.cur.RemoteTouchWrites
	g.cur = grown
}

// Levels returns the current level list (not a copy; do not mutate).
func (g *GrowingCounters) Levels() []Level { return g.levels }

// Counters returns the cumulative counter set (not a copy).
func (g *GrowingCounters) Counters() *CounterSet { return g.cur }

// Snapshot renders the cumulative counters under the current geometry.
func (g *GrowingCounters) Snapshot() Snapshot { return SnapshotOf(g.levels, g.cur) }
