package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"writeavoid/internal/machine"
)

// FALRU is checked differentially against refFALRU, the original map-based
// implementation: after every chunk of accesses the full Stats, and Contains
// and LRUDistance on sampled addresses, must agree exactly.

// Address modes of a differential case.
const (
	modeDense     = iota // consecutive lines from 0
	modeFull64           // uniformly random 64-bit addresses
	modeClustered        // lines hashing to a few index buckets, wrapping the table end
	modeStrided          // a power-of-two stride far above the line size
	numModes
)

// Special ops of a differential stream; every other op is an access.
const (
	opFlush = -1 - iota
	opReset
	opCheck
)

// diffOp is an access to pool[key] (write when set), or one of the
// special ops when key is negative.
type diffOp struct {
	key   int
	write bool
}

// diffCase is one differential run: a cache geometry, an address pool and
// an op stream over it.
type diffCase struct {
	capacity  int
	lineShift uint
	extra     int // bytes of the size beyond capacity lines (not a whole line)
	mode      int
	seed      int64
	ops       []diffOp
}

func (d diffCase) String() string {
	return fmt.Sprintf("capacity=%d line=%d extra=%d mode=%d seed=%d ops=%d",
		d.capacity, 1<<d.lineShift, d.extra, d.mode, d.seed, len(d.ops))
}

// keySpan is the number of distinct addresses a case draws from: a quarter
// more lines than fit, so a stream both hits and evicts.
func keySpan(capacity int) int { return capacity + capacity/4 + 2 }

// fibInverse is fibMul's multiplicative inverse modulo 2^64 (Newton's
// iteration; each step doubles the correct low bits).
func fibInverse() uint64 {
	inv := uint64(fibMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - fibMul*inv
	}
	return inv
}

// addrPool draws the case's addresses. Clustered lines are built by
// inverting the index hash, so their home buckets are exactly the chosen
// few and the probe chains they form wrap around the end of the table.
func addrPool(c *FALRU, mode int, n int, rng *rand.Rand) []uint64 {
	pool := make([]uint64, n)
	lineBytes := uint64(c.lineBytes)
	offset := func() uint64 { return rng.Uint64() & (lineBytes - 1) }
	switch mode {
	case modeDense:
		for i := range pool {
			pool[i] = uint64(i)*lineBytes + offset()
		}
	case modeFull64:
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		pool[0], pool[len(pool)-1] = 0, ^uint64(0)
	case modeClustered:
		inv := fibInverse()
		hot := []uint64{c.mask, 0, c.mask - 1, c.mask / 2}
		maxLine := ^uint64(0) >> c.lineShift
		for i := range pool {
			h := hot[rng.Intn(len(hot))]
			for {
				line := (h<<c.hashShift | rng.Uint64()>>(64-c.hashShift)) * inv
				if c.home(line) != h {
					panic(fmt.Sprintf("constructed line %#x homes at %d, want %d", line, c.home(line), h))
				}
				if line <= maxLine {
					pool[i] = line<<c.lineShift | offset()
					break
				}
			}
		}
	case modeStrided:
		for i := range pool {
			pool[i] = uint64(i)<<20 + offset()
		}
	}
	return pool
}

// replayDiff runs the case through both caches and reports the first
// disagreement.
func replayDiff(d diffCase) error {
	size := d.capacity<<d.lineShift + d.extra
	fa := NewFALRU(size, 1<<d.lineShift)
	ref := newRefFALRU(size, 1<<d.lineShift)
	rng := rand.New(rand.NewSource(d.seed))
	pool := addrPool(fa, d.mode, keySpan(d.capacity), rng)
	compare := func(at int) error {
		if a, b := fa.Stats(), ref.Stats(); a != b {
			return fmt.Errorf("op %d: stats %+v, reference %+v", at, a, b)
		}
		for k := 0; k < 8; k++ {
			addr := pool[rng.Intn(len(pool))]
			s1, ok1 := fa.Contains(addr)
			s2, ok2 := ref.Contains(addr)
			if s1 != s2 || ok1 != ok2 {
				return fmt.Errorf("op %d: Contains(%#x) = %v,%v, reference %v,%v", at, addr, s1, ok1, s2, ok2)
			}
			if r1, r2 := fa.LRUDistance(addr), ref.LRUDistance(addr); r1 != r2 {
				return fmt.Errorf("op %d: LRUDistance(%#x) = %d, reference %d", at, addr, r1, r2)
			}
		}
		return nil
	}
	for i, op := range d.ops {
		switch op.key {
		case opFlush:
			fa.FlushDirty()
			ref.FlushDirty()
		case opReset:
			fa.ResetStats()
			ref.ResetStats()
		case opCheck:
			if err := compare(i); err != nil {
				return err
			}
		default:
			addr := pool[op.key%len(pool)]
			fa.Access(addr, op.write)
			ref.Access(addr, op.write)
		}
	}
	if err := compare(len(d.ops)); err != nil {
		return err
	}
	fa.FlushDirty()
	ref.FlushDirty()
	return compare(len(d.ops) + 1)
}

// Generate draws a case for quick.Check: capacities from one line through
// the 513-line smp LLC, line sizes 1 B to 4 KiB, every address mode, and
// flushes and stat resets interleaved with checks.
func (diffCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	caps := []int{1, 2, 3, 7, 64, 100, 513}
	d := diffCase{
		capacity:  caps[rng.Intn(len(caps))],
		lineShift: uint(rng.Intn(13)),
		mode:      rng.Intn(numModes),
		seed:      rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		d.capacity = 1 + rng.Intn(600)
	}
	if d.lineShift > 0 {
		d.extra = rng.Intn(1 << d.lineShift)
	}
	n := 4*keySpan(d.capacity) + rng.Intn(2000)
	span := keySpan(d.capacity)
	d.ops = make([]diffOp, n)
	for i := range d.ops {
		switch r := rng.Intn(1000); {
		case r < 2:
			d.ops[i].key = opFlush
		case r < 4:
			d.ops[i].key = opReset
		case r < 30:
			d.ops[i].key = opCheck
		default:
			d.ops[i] = diffOp{key: rng.Intn(span), write: rng.Intn(3) == 0}
		}
	}
	return reflect.ValueOf(d)
}

func TestFALRUMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	prop := func(d diffCase) bool {
		if err := replayDiff(d); err != nil {
			t.Logf("%v: %v", d, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzFALRUDifferential decodes the stream two bytes an op: 0xFFF0 flushes,
// 0xFFF1 resets the counters, 0xFFF2 compares the caches, anything else
// accesses an address of the pool (bit 0 is the direction).
func FuzzFALRUDifferential(f *testing.F) {
	f.Add(uint16(0), uint8(6), uint8(modeDense), int64(1), []byte{0, 1, 0, 2, 0, 4, 0xff, 0xf2, 0, 3})
	f.Add(uint16(512), uint8(6), uint8(modeClustered), int64(2), []byte{1, 1, 2, 2, 3, 3, 0xff, 0xf0, 1, 1})
	f.Add(uint16(63), uint8(12), uint8(modeFull64), int64(3), []byte{0, 9, 0xff, 0xf1, 0, 9, 0, 8})
	f.Add(uint16(6), uint8(0), uint8(modeStrided), int64(4), []byte{0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 0, 14})
	f.Fuzz(func(t *testing.T, capSel uint16, lineSel, mode uint8, seed int64, raw []byte) {
		d := diffCase{
			capacity:  1 + int(capSel)%1024,
			lineShift: uint(lineSel) % 13,
			mode:      int(mode) % numModes,
			seed:      seed,
		}
		span := keySpan(d.capacity)
		for i := 0; i+1 < len(raw); i += 2 {
			v := int(raw[i])<<8 | int(raw[i+1])
			switch v {
			case 0xfff0:
				d.ops = append(d.ops, diffOp{key: opFlush})
			case 0xfff1:
				d.ops = append(d.ops, diffOp{key: opReset})
			case 0xfff2:
				d.ops = append(d.ops, diffOp{key: opCheck})
			default:
				d.ops = append(d.ops, diffOp{key: (v >> 1) % span, write: v&1 != 0})
			}
		}
		if err := replayDiff(d); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	})
}

// TestFALRUSteadyStateDoesNotAllocate pins zero allocations per access on a
// hit, a clean eviction and a dirty eviction, and per RecordBatch.
func TestFALRUSteadyStateDoesNotAllocate(t *testing.T) {
	const lines = 8
	c := NewFALRU(lines*64, 64)
	var k uint64
	cycle := func(write bool) func() {
		return func() { // lines+1 lines round-robin: every access misses and evicts
			k++
			c.Access(k%(lines+1)*64, write)
		}
	}
	for _, tc := range []struct {
		name  string
		run   func()
		field func(Stats) int64
	}{
		{"hit", func() { c.Access(0, false) }, func(s Stats) int64 { return s.Hits }},
		{"clean eviction", cycle(false), func(s Stats) int64 { return s.VictimsE }},
		{"dirty eviction", cycle(true), func(s Stats) int64 { return s.VictimsM }},
	} {
		for i := 0; i < 2*(lines+1); i++ {
			tc.run()
		}
		c.ResetStats()
		if a := testing.AllocsPerRun(200, tc.run); a != 0 {
			t.Errorf("%s: %v allocs per access", tc.name, a)
		}
		if got := tc.field(c.Stats()); got != 201 { // AllocsPerRun adds one warm-up run
			t.Errorf("%s: counted %d of 201 accesses, stream does not exercise it", tc.name, got)
		}
	}

	var batch []machine.Event
	for i := 0; i < 64; i++ {
		batch = append(batch, machine.Event{Kind: machine.EvTouch, Addr: uint64(i%(2*lines)) * 64, Write: i%3 == 0})
		if i%16 == 0 {
			batch = append(batch, machine.Event{Kind: machine.EvLoad, Words: 1})
		}
	}
	if a := testing.AllocsPerRun(100, func() { c.RecordBatch(batch) }); a != 0 {
		t.Errorf("RecordBatch: %v allocs per batch", a)
	}
}

// TestFALRURecordBatchForwardsTouches checks RecordBatch against Access on
// the same touches, with non-touch events interleaved.
func TestFALRURecordBatchForwardsTouches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	direct, batched := NewFALRU(32*64, 64), NewFALRU(32*64, 64)
	var events []machine.Event
	for i := 0; i < 5000; i++ {
		addr, write := uint64(rng.Intn(64*64)), rng.Intn(4) == 0
		direct.Access(addr, write)
		events = append(events, machine.Event{Kind: machine.EvTouch, Addr: addr, Write: write})
		if i%7 == 0 {
			events = append(events, machine.Event{Kind: machine.EvStore, Words: 3, Addr: addr})
		}
	}
	batched.RecordBatch(events)
	if !batched.WantsTouch() {
		t.Fatal("FALRU must subscribe to the touch stream")
	}
	if direct.Stats() != batched.Stats() {
		t.Fatalf("batched %+v, direct %+v", batched.Stats(), direct.Stats())
	}
}
