package cache

import (
	"fmt"

	"writeavoid/internal/machine"
)

// Hierarchy chains caches (fastest first) into a multi-level simulator. An
// access probes level 0; on a miss it recursively probes the next level; the
// line is then filled into every level it missed in (a mostly-inclusive
// design, like the Nehalem-EX the paper measures). A modified line evicted
// from level i is written back into level i+1 as a write access; a modified
// victim of the last level is a memory write-back counted in that level's
// VictimsM.
//
// Hierarchy exists so multi-level instruction orders (the Figure 5 left
// column) can be studied end to end; the Figure 2 experiments drive a single
// L3-sized cache directly, as DESIGN.md explains.
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from per-level configs, fastest first. All
// levels must share a line size.
func NewHierarchy(cfgs ...Config) *Hierarchy {
	if len(cfgs) == 0 {
		panic("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	for i, cfg := range cfgs {
		if cfg.LineBytes != cfgs[0].LineBytes {
			panic(fmt.Sprintf("cache: level %d line size %d != level 0 line size %d",
				i, cfg.LineBytes, cfgs[0].LineBytes))
		}
		h.levels = append(h.levels, New(cfg))
	}
	return h
}

// Level returns the cache at depth i (0 = fastest).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// NumLevels returns the number of levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// LineBytes returns the shared line size.
func (h *Hierarchy) LineBytes() int { return h.levels[0].LineBytes() }

// Stats returns the counters of the LAST (memory-facing) level, which is the
// level whose VictimsM are true memory write-backs. Per-level counters are
// available via Level(i).Stats().
func (h *Hierarchy) Stats() Stats { return h.levels[len(h.levels)-1].Stats() }

// Access simulates one access through the hierarchy.
func (h *Hierarchy) Access(addr uint64, write bool) {
	h.access(0, addr, write)
}

// RecordBatch replays the block's EvTouch events in order through Access and
// ignores every other event, like Cache.RecordBatch: flush (or detach) the
// machine.Hierarchy it is attached to before reading any level's Stats.
func (h *Hierarchy) RecordBatch(events []machine.Event) {
	for i := range events {
		if events[i].Kind == machine.EvTouch {
			h.access(0, events[i].Addr, events[i].Write)
		}
	}
}

// WantsTouch subscribes the hierarchy to the per-element stream.
func (h *Hierarchy) WantsTouch() bool { return true }

// access simulates one access at depth lvl and what it sends below. A hit
// neither fills nor evicts, so it ends there.
func (h *Hierarchy) access(lvl int, addr uint64, write bool) {
	c := h.levels[lvl]
	hit, wbLine, wbValid := c.accessTracked(addr, write)
	if hit || lvl+1 == len(h.levels) {
		return
	}
	// Fill from the level below (a read there, or a write if this was a
	// write access that missed everywhere; the write-allocate fill itself
	// is a read of the line).
	h.access(lvl+1, addr, false)
	if wbValid {
		// Dirty victim descends one level as a write.
		h.access(lvl+1, wbLine<<c.lineShift, true)
	}
}

// FlushDirty flushes every level, cascading dirty victims downward so that a
// line dirty only in L1 still reaches the last level as a write-back.
// Cascaded write-backs only reach deeper levels, which are flushed after.
func (h *Hierarchy) FlushDirty() {
	for i, c := range h.levels {
		for j, st := range c.state {
			if st == Modified {
				c.stats.VictimsM++
				c.stats.Flushed++
				if i+1 < len(h.levels) {
					h.access(i+1, c.tag[j]<<c.lineShift, true)
				}
			}
		}
		c.invalidate()
	}
}
