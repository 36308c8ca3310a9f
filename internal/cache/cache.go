// Package cache is a trace-driven, set-associative, write-back/write-allocate
// cache simulator with MESI-like line states, built to stand in for the
// Nehalem-EX L3 hardware counters of Section 6 of "Write-Avoiding
// Algorithms" (Carson et al., 2015).
//
// Counter mapping to the paper's measurements on the Xeon 7560:
//
//	FillsE     ~ LLC_S_FILLS.E   (lines filled from memory; all fills enter E)
//	VictimsM   ~ LLC_VICTIMS.M   (modified lines evicted => write-backs)
//	VictimsE   ~ LLC_VICTIMS.E   (clean lines evicted and forgotten)
//
// Replacement policies: true LRU, the 3-bit clock algorithm the paper cites
// as Nehalem's LRU approximation, FIFO, tree-PLRU, and seeded random; package
// opt adds the offline Belady policy. A specialized O(1) fully-associative
// LRU cache (FALRU) backs the Proposition 6.1/6.2 tests, which are stated for
// fully-associative LRU.
package cache

import (
	"fmt"
	"math/rand/v2"

	"writeavoid/internal/machine"
)

// State is a cache line coherence state. With a single simulated core the
// relevant MESIF states collapse to Invalid / Exclusive (clean) / Modified.
type State uint8

// Line states.
const (
	Invalid State = iota
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Stats are the simulator's counters, in cache lines (not bytes).
//
// Write-back accounting invariant (shared by Cache, FALRU, Hierarchy and
// SimulateOPT): every dirty line leaving the cache is exactly one write-back,
// counted once in VictimsM — whether it left mid-run as a replacement victim
// or at the end via FlushDirty (implicit for SimulateOPT). Flushed counts
// only the FlushDirty subset, so Flushed <= VictimsM always, mid-run
// replacement victims are VictimsM - Flushed, and Writebacks() == VictimsM is
// the total lines written to memory by the write-back path. The conservation
// law FillsE == (VictimsM - Flushed) + VictimsE + R also holds, where R is
// the number of lines resident just before FlushDirty ran (FlushDirty drops
// clean residents without counting them anywhere).
type Stats struct {
	Accesses int64
	Reads    int64
	Writes   int64
	Hits     int64
	Misses   int64
	FillsE   int64 // lines brought in from memory (paper: LLC_S_FILLS.E)
	VictimsM int64 // every dirty line leaving the cache: obligatory write-backs (LLC_VICTIMS.M)
	VictimsE int64 // clean lines evicted and forgotten (LLC_VICTIMS.E)
	Flushed  int64 // the FlushDirty subset of VictimsM (end-of-run write-backs)
	// WriteThroughs counts per-access memory writes in write-through mode.
	WriteThroughs int64
}

// MemoryWrites returns all lines/accesses written to memory: write-back
// victims plus write-through stores.
func (s Stats) MemoryWrites() int64 { return s.VictimsM + s.WriteThroughs }

// Writebacks returns the total lines written back to memory.
func (s Stats) Writebacks() int64 { return s.VictimsM }

// Sub returns the counter-wise difference s - prev: the stats of exactly the
// accesses between two observation points of one running simulation. Every
// field is a monotone counter, so differences of successive observations are
// non-negative and sum back to the final totals.
func (s Stats) Sub(prev Stats) Stats {
	s.Accesses -= prev.Accesses
	s.Reads -= prev.Reads
	s.Writes -= prev.Writes
	s.Hits -= prev.Hits
	s.Misses -= prev.Misses
	s.FillsE -= prev.FillsE
	s.VictimsM -= prev.VictimsM
	s.VictimsE -= prev.VictimsE
	s.Flushed -= prev.Flushed
	s.WriteThroughs -= prev.WriteThroughs
	return s
}

// Simulator is the common interface of the set-associative cache, the
// fully-associative LRU cache, and the multi-level hierarchy front end.
type Simulator interface {
	Access(addr uint64, write bool)
	FlushDirty()
	Stats() Stats
	LineBytes() int
}

// Config describes one cache.
type Config struct {
	SizeBytes int        // total capacity
	LineBytes int        // line size (power of two)
	Assoc     int        // ways per set; 0 or >= number of lines means fully associative
	Policy    PolicyKind // replacement policy
	Seed      uint64     // PRNG seed for PolicyRandom

	// WriteThrough switches from write-back/write-allocate to
	// write-through/no-write-allocate: every write goes straight to
	// memory (counted in Stats.WriteThroughs), lines never turn dirty,
	// and write misses do not fill. This models designs where writes
	// bypass the cache entirely (e.g. an NVM write path) — under which
	// no instruction reordering can avoid writes, making the write-back
	// policy itself a precondition of Section 6's results.
	WriteThrough bool
}

// Lines returns the number of lines the configuration holds.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

func (c Config) validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineBytes)
	}
	if c.SizeBytes < c.LineBytes {
		return fmt.Errorf("cache: size %d smaller than one line (%d)", c.SizeBytes, c.LineBytes)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.Lines()
	assoc := c.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	if lines%assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, assoc)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: number of sets %d must be a power of two", sets)
	}
	switch c.Policy {
	case PolicyLRU, PolicyClock3, PolicyFIFO, PolicyRandom:
	case PolicyPLRU:
		if assoc&(assoc-1) != 0 {
			return fmt.Errorf("cache: PLRU requires power-of-two associativity, got %d", assoc)
		}
	default:
		return fmt.Errorf("cache: unknown policy %v", c.Policy)
	}
	return nil
}

// Cache is a set-associative write-back, write-allocate cache.
//
// Lines live in set-major flat arrays: way w of set s is entry s*assoc+w of
// tag, state and meta. Each set also has a header (setHeader) with the
// replacement policy's counter, the way of the set's last hit or fill and
// the number of valid ways, which always come first in the set. A lookup
// probes the last-hit-or-fill way before scanning the valid ways' tags;
// valid tags are unique within a set, so the probe changes only the search
// order, never the result.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	tag       []uint64
	state     []State
	meta      []uint32 // per-way policy metadata (stamps, markers, PLRU tree)
	hdr       []setHeader
	rng       *rand.Rand // PolicyRandom only
	stats     Stats
}

// New builds a cache from a config; it panics on invalid geometry because a
// bad config is a programming error in an experiment definition.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	lines := cfg.Lines()
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	nsets := lines / assoc
	c := &Cache{
		cfg:     cfg,
		assoc:   assoc,
		setMask: uint64(nsets - 1),
		tag:     make([]uint64, lines),
		state:   make([]State, lines),
		meta:    make([]uint32, lines),
		hdr:     make([]setHeader, nsets),
	}
	if cfg.Policy == PolicyRandom {
		c.rng = rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Assoc returns the effective associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.hdr) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access simulates one read or write of the byte at addr. The line state and
// victim bookkeeping live in accessTracked (shared with Hierarchy, which also
// needs the identity of dirty victims to cascade write-backs).
func (c *Cache) Access(addr uint64, write bool) {
	c.accessTracked(addr, write)
}

// RecordBatch replays the block's EvTouch events in order through Access and
// ignores every other event, exactly as machine.TraceRecorder forwarding to
// this cache would, minus the interface call per access. Attached to a
// machine.Hierarchy directly, the cache sees a touch only when the
// hierarchy's event buffer flushes: flush (or detach) the hierarchy before
// reading Stats or Contains.
func (c *Cache) RecordBatch(events []machine.Event) {
	for i := range events {
		if events[i].Kind == machine.EvTouch {
			c.accessTracked(events[i].Addr, events[i].Write)
		}
	}
}

// WantsTouch subscribes the cache to the per-element stream.
func (c *Cache) WantsTouch() bool { return true }

// FlushDirty writes back every modified line (counting into VictimsM and
// Flushed) and invalidates the whole cache. Experiments call it at the end of
// a run so that the final resident dirty output counts as written, matching
// the paper's whole-run counter readings.
func (c *Cache) FlushDirty() {
	for _, st := range c.state {
		if st == Modified {
			c.stats.VictimsM++
			c.stats.Flushed++
		}
	}
	c.invalidate()
}

// invalidate empties the cache and resets every policy's state.
func (c *Cache) invalidate() {
	clear(c.state)
	clear(c.meta)
	clear(c.hdr)
}

// Contains reports whether the line holding addr is resident, and its state.
// Used by tests to probe simulator internals.
func (c *Cache) Contains(addr uint64) (State, bool) {
	lineAddr := addr >> c.lineShift
	si := int(lineAddr & c.setMask)
	if i := c.lookup(si*c.assoc, &c.hdr[si], lineAddr); i >= 0 {
		return c.state[i], true
	}
	return Invalid, false
}

// lookup returns the flat index of the valid way holding lineAddr in the
// set whose ways start at base and whose header is h, or -1. It probes the
// set's last hit or fill first, then compares every valid way's tag with no
// early exit: at most one matches, and a fixed trip count spares the
// mispredicted loop exit of the small sets whose probe often fails.
func (c *Cache) lookup(base int, h *setHeader, lineAddr uint64) int {
	if h.mru < h.used && c.tag[base+int(h.mru)] == lineAddr {
		return base + int(h.mru)
	}
	found := -1
	for w, t := range c.tag[base : base+int(h.used)] {
		if t == lineAddr {
			found = base + w
		}
	}
	return found
}

// accessTracked performs the access and reports whether it hit and whether
// a modified line was evicted (so the hierarchy can propagate the
// write-back), returning the victim's line address.
func (c *Cache) accessTracked(addr uint64, write bool) (hit bool, victimLine uint64, victimDirty bool) {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	lineAddr := addr >> c.lineShift
	si := int(lineAddr & c.setMask)
	base := si * c.assoc
	h := &c.hdr[si]
	if i := c.lookup(base, h, lineAddr); i >= 0 {
		c.stats.Hits++
		if write {
			if c.cfg.WriteThrough {
				// Write-through: the memory copy is updated
				// immediately and the line stays clean.
				c.stats.WriteThroughs++
			} else {
				c.state[i] = Modified
			}
		}
		w := i - base
		h.mru = int32(w)
		// The policy's hit hook, inline since hits are the common case;
		// meta is sliced per case, off the path of FIFO and random hits.
		switch c.cfg.Policy {
		case PolicyLRU:
			stamp(h, c.meta[base:base+c.assoc], w)
		case PolicyClock3:
			clock3Touch(c.meta[base:base+c.assoc], w)
		case PolicyPLRU:
			plruTouch(c.meta[base:base+c.assoc], w)
		}
		return true, 0, false
	}
	c.stats.Misses++
	if write && c.cfg.WriteThrough {
		// No-write-allocate: the write goes straight to memory.
		c.stats.WriteThroughs++
		return false, 0, false
	}
	// Fill the first invalid way, or evict when the set is full.
	way := int(h.used)
	meta := c.meta[base : base+c.assoc]
	if way < c.assoc {
		h.used++
	} else {
		way = c.victim(h, meta)
		switch c.state[base+way] {
		case Modified:
			c.stats.VictimsM++
			victimLine, victimDirty = c.tag[base+way], true
		case Exclusive:
			c.stats.VictimsE++
		}
	}
	c.stats.FillsE++
	c.tag[base+way] = lineAddr
	if write {
		c.state[base+way] = Modified
	} else {
		c.state[base+way] = Exclusive
	}
	h.mru = int32(way)
	c.insert(h, meta, way)
	return false, victimLine, victimDirty
}

// insert records a fill into way w.
func (c *Cache) insert(h *setHeader, meta []uint32, w int) {
	switch c.cfg.Policy {
	case PolicyLRU, PolicyFIFO:
		stamp(h, meta, w)
	case PolicyClock3:
		// A freshly filled line starts recently-used with marker 1.
		meta[w] = 1
	case PolicyPLRU:
		plruTouch(meta, w)
	}
}

// victim picks the way to evict from a full set.
func (c *Cache) victim(h *setHeader, meta []uint32) int {
	switch c.cfg.Policy {
	case PolicyClock3:
		return clock3Victim(h, meta)
	case PolicyPLRU:
		return plruVictim(meta)
	case PolicyRandom:
		return c.rng.IntN(len(meta))
	default: // LRU, FIFO
		return oldest(meta)
	}
}
