package cache

import "fmt"

// PolicyKind selects a replacement policy.
type PolicyKind int

// Available replacement policies.
const (
	// PolicyLRU is true least-recently-used.
	PolicyLRU PolicyKind = iota
	// PolicyClock3 is the 3-bit clock algorithm the paper cites as
	// Nehalem-EX's LRU approximation: each line carries a 3-bit recency
	// marker incremented on hits; the victim search scans clockwise for a
	// marker of 0, decrementing all markers each full lap.
	PolicyClock3
	// PolicyFIFO evicts the oldest-filled line.
	PolicyFIFO
	// PolicyPLRU is tree-based pseudo-LRU (associativity must be a power
	// of two).
	PolicyPLRU
	// PolicyRandom evicts a uniformly random way (seeded, deterministic).
	PolicyRandom
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyLRU:
		return "LRU"
	case PolicyClock3:
		return "CLOCK3"
	case PolicyFIFO:
		return "FIFO"
	case PolicyPLRU:
		return "PLRU"
	case PolicyRandom:
		return "RANDOM"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// The replacement policies are plain functions over one set's per-way meta
// slice and its header, dispatched by a switch on PolicyKind in the hit path
// of Cache.accessTracked, in Cache.insert and in Cache.victim. None of them
// allocates.

// setHeader is a set's per-set state: the policy's counter, the way of its
// last hit or fill, which lookups probe first, and the number of valid ways.
// Fills take the first invalid way and only a flush invalidates, so the
// valid ways of a set are always ways 0 to used-1.
type setHeader struct {
	aux  uint32 // LRU/FIFO stamp counter, CLOCK3 hand
	mru  int32
	used int32
}

// --- true LRU and FIFO: per-way stamps from a per-set counter --------------

// stamp gives way w the set's next stamp. LRU stamps on every hit and fill,
// FIFO only on fills.
func stamp(h *setHeader, meta []uint32, w int) {
	h.aux++
	meta[w] = h.aux
}

// oldest returns the way with the smallest stamp, the first on a tie.
func oldest(meta []uint32) int {
	best, bestStamp := 0, meta[0]
	for w := 1; w < len(meta); w++ {
		if meta[w] < bestStamp {
			best, bestStamp = w, meta[w]
		}
	}
	return best
}

// --- 3-bit clock ------------------------------------------------------------

const clock3Max = 7

func clock3Touch(meta []uint32, w int) {
	if meta[w] < clock3Max {
		meta[w]++
	}
}

// clock3Victim advances the hand (h.aux) until it passes a marker of 0,
// decrementing every marker after each full lap without one.
func clock3Victim(h *setHeader, meta []uint32) int {
	assoc := uint32(len(meta))
	for {
		for i := uint32(0); i < assoc; i++ {
			w := h.aux
			if h.aux++; h.aux == assoc {
				h.aux = 0
			}
			if meta[w] == 0 {
				return int(w)
			}
		}
		for w := range meta {
			if meta[w] > 0 {
				meta[w]--
			}
		}
	}
}

// --- tree PLRU ----------------------------------------------------------------

// The PLRU tree has assoc-1 nodes, numbered as a complete binary tree over
// the ways (children of node i are 2i+1 and 2i+2). Node i's bit is bit i&31
// of meta[i>>5]; 1 means the most recent access went left, so the victim
// lies right. assoc-1 nodes need at most assoc/32+1 words, which the set's
// assoc meta words always hold.

// plruTouch walks from the root to leaf w, pointing each node away from w.
func plruTouch(meta []uint32, w int) {
	node := 0
	lo, hi := 0, len(meta)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			meta[node>>5] |= 1 << (node & 31)
			node = 2*node + 1
			hi = mid
		} else {
			meta[node>>5] &^= 1 << (node & 31)
			node = 2*node + 2
			lo = mid
		}
	}
}

// plruVictim follows the node bits from the root to the pseudo-LRU leaf.
func plruVictim(meta []uint32) int {
	node := 0
	lo, hi := 0, len(meta)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if meta[node>>5]&(1<<(node&31)) != 0 {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}
