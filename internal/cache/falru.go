package cache

import "writeavoid/internal/machine"

// FALRU is a fully-associative LRU write-back cache with O(1) accesses. The
// Proposition 6.1/6.2 experiments, which are stated for a fully-associative
// LRU fast memory, run on this type; the set-associative Cache would need
// associativity equal to the full line count and pay a linear victim scan.
//
// Resident lines live in slot arrays preallocated to capacity, threaded by
// int32 recency links. Lines are found through an open-addressing index
// (multiplicative hash, linear probing, backward-shift deletion) over a
// power-of-two table of at least twice the capacity, so any 64-bit line
// number works and no access allocates.
type FALRU struct {
	lineBytes int
	lineShift uint
	capacity  int // lines

	line       []uint64 // slot -> resident line number
	dirty      []bool
	prev, next []int32 // recency links between slots, nilSlot-terminated
	head, tail int32   // most / least recently used slot
	used       int32   // slots filled since the last flush

	index     []falruBucket
	mask      uint64
	hashShift uint
	stats     Stats
}

// falruBucket is one index entry; slot is the slot number plus one, so the
// zero value is an empty bucket.
type falruBucket struct {
	line uint64
	slot int32
}

const nilSlot = -1

// fibMul is 2^64 divided by the golden ratio: multiplying by it and keeping
// the top bits spreads strided line numbers evenly over the index.
const fibMul = 0x9E3779B97F4A7C15

// NewFALRU builds a fully-associative LRU cache of sizeBytes capacity.
func NewFALRU(sizeBytes, lineBytes int) *FALRU {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	if sizeBytes < lineBytes {
		panic("cache: size smaller than one line")
	}
	capacity := sizeBytes / lineBytes
	if capacity > 1<<30 {
		panic("cache: FALRU capacity exceeds 2^30 lines")
	}
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	c := &FALRU{
		lineBytes: lineBytes,
		capacity:  capacity,
		line:      make([]uint64, capacity),
		dirty:     make([]bool, capacity),
		prev:      make([]int32, capacity),
		next:      make([]int32, capacity),
		head:      nilSlot,
		tail:      nilSlot,
		index:     make([]falruBucket, 1<<bits),
		mask:      1<<bits - 1,
		hashShift: 64 - bits,
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// LineBytes returns the line size.
func (c *FALRU) LineBytes() int { return c.lineBytes }

// Capacity returns the capacity in lines.
func (c *FALRU) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *FALRU) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps contents.
func (c *FALRU) ResetStats() { c.stats = Stats{} }

// Access simulates one read or write of the byte at addr.
func (c *FALRU) Access(addr uint64, write bool) {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	line := addr >> c.lineShift
	if s := c.find(line); s != nilSlot {
		c.stats.Hits++
		if write {
			c.dirty[s] = true
		}
		if s != c.head {
			c.unlink(s)
			c.pushFront(s)
		}
		return
	}
	c.stats.Misses++
	var s int32
	if int(c.used) < c.capacity {
		s = c.used
		c.used++
	} else {
		s = c.tail
		if c.dirty[s] {
			c.stats.VictimsM++
		} else {
			c.stats.VictimsE++
		}
		c.unlink(s)
		c.remove(c.line[s])
	}
	c.stats.FillsE++
	c.line[s] = line
	c.dirty[s] = write
	c.insert(line, s)
	c.pushFront(s)
}

// RecordBatch replays the block's EvTouch events in order through Access and
// ignores every other event, exactly as machine.TraceRecorder forwarding to
// this cache would, minus the interface call per access. Attached to a
// machine.Hierarchy directly, the cache sees a touch only when the
// hierarchy's event buffer flushes: flush (or detach) the hierarchy before
// reading Stats, Contains or LRUDistance, or the tail of the trace may still
// sit in the buffer.
func (c *FALRU) RecordBatch(events []machine.Event) {
	for i := range events {
		if events[i].Kind == machine.EvTouch {
			c.Access(events[i].Addr, events[i].Write)
		}
	}
}

// WantsTouch subscribes the cache to the per-element stream.
func (c *FALRU) WantsTouch() bool { return true }

// FlushDirty writes back all dirty lines and empties the cache.
func (c *FALRU) FlushDirty() {
	for _, d := range c.dirty[:c.used] {
		if d {
			c.stats.VictimsM++
			c.stats.Flushed++
		}
	}
	clear(c.index)
	c.used = 0
	c.head, c.tail = nilSlot, nilSlot
}

// Contains reports residency and state of the line holding addr.
func (c *FALRU) Contains(addr uint64) (State, bool) {
	s := c.find(addr >> c.lineShift)
	if s == nilSlot {
		return Invalid, false
	}
	if c.dirty[s] {
		return Modified, true
	}
	return Exclusive, true
}

// LRUDistance returns the recency rank of the line holding addr (0 = most
// recently used), or -1 if absent. Tests of Proposition 6.1 use this to check
// the "never ranked below 5b^2" invariant directly.
func (c *FALRU) LRUDistance(addr uint64) int {
	line := addr >> c.lineShift
	rank := 0
	for s := c.head; s != nilSlot; s = c.next[s] {
		if c.line[s] == line {
			return rank
		}
		rank++
	}
	return -1
}

// home is the index bucket line probes from.
func (c *FALRU) home(line uint64) uint64 { return line * fibMul >> c.hashShift }

// find returns the slot holding line, or nilSlot.
func (c *FALRU) find(line uint64) int32 {
	for i := c.home(line); ; i = (i + 1) & c.mask {
		b := &c.index[i]
		if b.slot == 0 {
			return nilSlot
		}
		if b.line == line {
			return b.slot - 1
		}
	}
}

// insert indexes line, known to be absent, at slot s.
func (c *FALRU) insert(line uint64, s int32) {
	i := c.home(line)
	for c.index[i].slot != 0 {
		i = (i + 1) & c.mask
	}
	c.index[i] = falruBucket{line: line, slot: s + 1}
}

// remove drops line, known to be present, from the index. Backward-shift
// deletion keeps every probe chain unbroken without tombstones: each later
// entry of the cluster whose home does not lie cyclically in (hole, entry]
// moves back into the hole.
func (c *FALRU) remove(line uint64) {
	i := c.home(line)
	for c.index[i].line != line || c.index[i].slot == 0 {
		i = (i + 1) & c.mask
	}
	for j := i; ; {
		j = (j + 1) & c.mask
		if c.index[j].slot == 0 {
			break
		}
		if (j-c.home(c.index[j].line))&c.mask >= (j-i)&c.mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = falruBucket{}
}

func (c *FALRU) unlink(s int32) {
	p, n := c.prev[s], c.next[s]
	if p != nilSlot {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n != nilSlot {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

func (c *FALRU) pushFront(s int32) {
	c.prev[s] = nilSlot
	c.next[s] = c.head
	if c.head != nilSlot {
		c.prev[c.head] = s
	} else {
		c.tail = s
	}
	c.head = s
}
