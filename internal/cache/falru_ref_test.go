package cache

// refFALRU is the original map-based FALRU, kept verbatim as the test-only
// reference the slot-array FALRU is differentially checked against: a hash
// map from line to heap node plus an intrusive doubly-linked recency list.
type refFALRU struct {
	lineBytes int
	lineShift uint
	capacity  int // lines
	nodes     map[uint64]*refNode
	head      *refNode // most recently used
	tail      *refNode // least recently used
	stats     Stats
}

type refNode struct {
	line       uint64
	dirty      bool
	prev, next *refNode
}

// newRefFALRU builds a reference cache of sizeBytes capacity.
func newRefFALRU(sizeBytes, lineBytes int) *refFALRU {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	if sizeBytes < lineBytes {
		panic("cache: size smaller than one line")
	}
	c := &refFALRU{
		lineBytes: lineBytes,
		capacity:  sizeBytes / lineBytes,
		nodes:     make(map[uint64]*refNode),
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// LineBytes returns the line size.
func (c *refFALRU) LineBytes() int { return c.lineBytes }

// Capacity returns the capacity in lines.
func (c *refFALRU) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *refFALRU) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps contents.
func (c *refFALRU) ResetStats() { c.stats = Stats{} }

// Access simulates one read or write of the byte at addr.
func (c *refFALRU) Access(addr uint64, write bool) {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	line := addr >> c.lineShift
	if n, ok := c.nodes[line]; ok {
		c.stats.Hits++
		if write {
			n.dirty = true
		}
		c.moveToFront(n)
		return
	}
	c.stats.Misses++
	if len(c.nodes) >= c.capacity {
		v := c.tail
		c.unlink(v)
		delete(c.nodes, v.line)
		if v.dirty {
			c.stats.VictimsM++
		} else {
			c.stats.VictimsE++
		}
	}
	c.stats.FillsE++
	n := &refNode{line: line, dirty: write}
	c.nodes[line] = n
	c.pushFront(n)
}

// FlushDirty writes back all dirty lines and empties the cache.
func (c *refFALRU) FlushDirty() {
	for _, n := range c.nodes {
		if n.dirty {
			c.stats.VictimsM++
			c.stats.Flushed++
		}
	}
	c.nodes = make(map[uint64]*refNode)
	c.head, c.tail = nil, nil
}

// Contains reports residency and state of the line holding addr.
func (c *refFALRU) Contains(addr uint64) (State, bool) {
	n, ok := c.nodes[addr>>c.lineShift]
	if !ok {
		return Invalid, false
	}
	if n.dirty {
		return Modified, true
	}
	return Exclusive, true
}

// LRUDistance returns the recency rank of the line holding addr (0 = most
// recently used), or -1 if absent. Tests of Proposition 6.1 use this to check
// the "never ranked below 5b^2" invariant directly.
func (c *refFALRU) LRUDistance(addr uint64) int {
	line := addr >> c.lineShift
	rank := 0
	for n := c.head; n != nil; n = n.next {
		if n.line == line {
			return rank
		}
		rank++
	}
	return -1
}

func (c *refFALRU) moveToFront(n *refNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *refFALRU) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *refFALRU) pushFront(n *refNode) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}
