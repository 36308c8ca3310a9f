package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"writeavoid/internal/access"
	"writeavoid/internal/machine"
)

func mkCache(sizeLines, assoc int, pol PolicyKind) *Cache {
	return New(Config{SizeBytes: sizeLines * 64, LineBytes: 64, Assoc: assoc, Policy: pol, Seed: 1})
}

func TestHitAfterFill(t *testing.T) {
	c := mkCache(8, 2, PolicyLRU)
	c.Access(0, false)
	c.Access(8, false) // same line (64B lines)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.FillsE != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteMarksModified(t *testing.T) {
	c := mkCache(8, 2, PolicyLRU)
	c.Access(0, true)
	if s, ok := c.Contains(0); !ok || s != Modified {
		t.Fatalf("state %v ok %v", s, ok)
	}
	c.Access(64, false)
	if s, ok := c.Contains(64); !ok || s != Exclusive {
		t.Fatalf("clean read should be Exclusive, got %v", s)
	}
}

func TestEvictionStatesCounted(t *testing.T) {
	// Direct-mapped 2-line cache: lines 0 and 2 map to set 0, lines 1 and 3 to set 1.
	c := mkCache(2, 1, PolicyLRU)
	c.Access(0, true)     // fill line 0, dirty
	c.Access(2*64, false) // conflicts: evicts dirty line 0
	st := c.Stats()
	if st.VictimsM != 1 || st.VictimsE != 0 {
		t.Fatalf("want one M victim: %+v", st)
	}
	c.Access(0, false) // evicts clean line 2
	if st := c.Stats(); st.VictimsE != 1 {
		t.Fatalf("want one E victim: %+v", st)
	}
}

func TestFlushDirtyCountsResidentWrites(t *testing.T) {
	c := mkCache(16, 4, PolicyLRU)
	for i := 0; i < 5; i++ {
		c.Access(uint64(i*64), true)
	}
	c.Access(1000*64, false)
	c.FlushDirty()
	st := c.Stats()
	if st.VictimsM != 5 || st.Flushed != 5 {
		t.Fatalf("flush should write back 5 dirty lines: %+v", st)
	}
	if _, ok := c.Contains(0); ok {
		t.Fatal("flush must invalidate")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := mkCache(4, 4, PolicyLRU) // one set, 4 ways
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false) // touch line 0: line 1 is now LRU
	c.Access(4*64, false)
	if _, ok := c.Contains(1 * 64); ok {
		t.Fatal("line 1 should have been evicted")
	}
	if _, ok := c.Contains(0); !ok {
		t.Fatal("line 0 should survive")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := mkCache(4, 4, PolicyFIFO)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false) // re-touch does not refresh FIFO age
	c.Access(4*64, false)
	if _, ok := c.Contains(0); ok {
		t.Fatal("FIFO should evict the oldest fill (line 0) despite the touch")
	}
}

func TestClock3ApproximatesLRU(t *testing.T) {
	c := mkCache(4, 4, PolicyClock3)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	// Touch line 0 many times: its marker saturates at 7.
	for i := 0; i < 10; i++ {
		c.Access(0, false)
	}
	// A burst of conflicting fills must never evict the hot line before
	// the cold ones.
	c.Access(4*64, false)
	c.Access(5*64, false)
	c.Access(6*64, false)
	if _, ok := c.Contains(0); !ok {
		t.Fatal("CLOCK3 evicted the hottest line while cold lines remained")
	}
}

func TestPLRUBasic(t *testing.T) {
	c := mkCache(4, 4, PolicyPLRU)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false)
	c.Access(4*64, false) // someone other than 0 must go
	if _, ok := c.Contains(0); !ok {
		t.Fatal("PLRU evicted the most recently used line")
	}
	st := c.Stats()
	if st.Misses != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPLRUWideSetsEvictEveryWay streams new lines through one set of 64
// and of 128 ways: tree-PLRU fills every way in turn, so after 99 rounds of
// fresh lines none of the first assoc lines is left. A tree kept in 32 bits
// loses every node from 32 on and leaves about half of them resident.
func TestPLRUWideSetsEvictEveryWay(t *testing.T) {
	for _, assoc := range []int{16, 32, 64, 128} {
		c := mkCache(assoc, assoc, PolicyPLRU)
		for i := 0; i < 100*assoc; i++ {
			c.Access(uint64(i)*64, false)
		}
		left := 0
		for i := 0; i < assoc; i++ {
			if _, ok := c.Contains(uint64(i) * 64); ok {
				left++
			}
		}
		if left != 0 {
			t.Errorf("%d ways: %d of the first %d lines still resident after %d new ones",
				assoc, left, assoc, 99*assoc)
		}
		if st := c.Stats(); st.Hits != 0 || st.VictimsE != int64(99*assoc) {
			t.Errorf("%d ways: stats %+v", assoc, st)
		}
	}
}

// Write-through/no-allocate: every write is a memory write, lines never
// dirty, write misses do not fill.
func TestWriteThroughMode(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, Policy: PolicyLRU, WriteThrough: true})
	c.Access(0, true) // write miss: straight to memory, no fill
	if _, ok := c.Contains(0); ok {
		t.Fatal("no-write-allocate must not fill on a write miss")
	}
	c.Access(0, false) // read miss fills clean
	c.Access(0, true)  // write hit: through to memory, stays clean
	if st, ok := c.Contains(0); !ok || st != Exclusive {
		t.Fatalf("write-through hit must keep the line clean, got %v ok=%v", st, ok)
	}
	st := c.Stats()
	if st.WriteThroughs != 2 {
		t.Fatalf("write-throughs %d want 2", st.WriteThroughs)
	}
	c.FlushDirty()
	if got := c.Stats().VictimsM; got != 0 {
		t.Fatalf("write-through cache can have no dirty victims, got %d", got)
	}
	if c.Stats().MemoryWrites() != 2 {
		t.Fatal("MemoryWrites should count the write-throughs")
	}
}

// Under write-through, write-avoidance by reordering is impossible: the WA
// matmul trace writes memory once per C-element visit regardless of order —
// the write-back policy is itself a precondition of the Section 6 results.
func TestWriteThroughDefeatsWriteAvoidance(t *testing.T) {
	wb := New(Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 16, Policy: PolicyLRU})
	wt := New(Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 16, Policy: PolicyLRU, WriteThrough: true})
	// A simple dirty-hot-line workload: repeated writes to one block.
	for i := 0; i < 1000; i++ {
		wb.Access(uint64(i%64)*8, true)
		wt.Access(uint64(i%64)*8, true)
	}
	wb.FlushDirty()
	wt.FlushDirty()
	if wbw := wb.Stats().MemoryWrites(); wbw > 8 {
		t.Fatalf("write-back should coalesce to <= 8 lines, got %d", wbw)
	}
	if wtw := wt.Stats().MemoryWrites(); wtw != 1000 {
		t.Fatalf("write-through must write memory per store: %d", wtw)
	}
}

// Classic identity: tree-PLRU with 2 ways IS true LRU.
func TestPLRUEqualsLRUTwoWay(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 123))
		lru := mkCache(16, 2, PolicyLRU)
		plru := mkCache(16, 2, PolicyPLRU)
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.IntN(64)) * 64
			w := rng.IntN(3) == 0
			lru.Access(addr, w)
			plru.Access(addr, w)
		}
		a, b := lru.Stats(), plru.Stats()
		return a.Hits == b.Hits && a.VictimsM == b.VictimsM && a.VictimsE == b.VictimsE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPolicyDeterministicUnderSeed(t *testing.T) {
	run := func() Stats {
		c := New(Config{SizeBytes: 8 * 64, LineBytes: 64, Assoc: 8, Policy: PolicyRandom, Seed: 42})
		rng := rand.New(rand.NewPCG(7, 7))
		for i := 0; i < 5000; i++ {
			c.Access(uint64(rng.IntN(64))*64, rng.IntN(2) == 0)
		}
		return c.Stats()
	}
	if run() != run() {
		t.Fatal("seeded random policy must be deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, LineBytes: 0},
		{SizeBytes: 100, LineBytes: 48},
		{SizeBytes: 32, LineBytes: 64},
		{SizeBytes: 65, LineBytes: 64},
		{SizeBytes: 64 * 12, LineBytes: 64, Assoc: 5}, // 12 lines % 5 != 0
		{SizeBytes: 64 * 12, LineBytes: 64, Assoc: 2}, // 6 sets not power of two
		{SizeBytes: 64 * 48, LineBytes: 64, Assoc: 12, Policy: PolicyPLRU},
		{SizeBytes: 64 * 12, LineBytes: 64, Policy: PolicyPLRU}, // one set of 12 ways
		{SizeBytes: 64 * 16, LineBytes: 64, Assoc: 4, Policy: PolicyKind(99)},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d should panic: %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// LRU inclusion property (Mattson): under LRU, the contents of a cache of
// size M are a subset of the contents of a cache of size 2M on the same
// trace, so misses(2M) <= misses(M).
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		small := NewFALRU(16*64, 64)
		big := NewFALRU(32*64, 64)
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.IntN(64)) * 64
			w := rng.IntN(3) == 0
			small.Access(addr, w)
			big.Access(addr, w)
			// Inclusion: everything in small must be in big.
			if _, inSmall := small.Contains(addr); inSmall {
				if _, inBig := big.Contains(addr); !inBig {
					return false
				}
			}
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Sleator–Tarjan style sanity: LRU with capacity 2M incurs no more misses
// than OPT with capacity M on the same trace (a weaker, checkable form of the
// competitive bound the paper cites).
func TestLRUVsOPTCompetitive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		var rec access.Recorder
		for i := 0; i < 3000; i++ {
			rec.Access(uint64(rng.IntN(48))*64, rng.IntN(4) == 0)
		}
		lru := NewFALRU(16*64, 64)
		for _, op := range rec.Ops {
			lru.Access(op.Addr, op.Write)
		}
		opt := SimulateOPT(rec.Ops, 8*64, 64)
		// LRU(2M) misses <= 2 * OPT(M) misses  (Sleator–Tarjan factor
		// M/(M-M'+1) = 16/9 < 2 here).
		return lru.Stats().Misses <= 2*opt.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 6))
		var rec access.Recorder
		for i := 0; i < 3000; i++ {
			rec.Access(uint64(rng.IntN(40))*64, rng.IntN(4) == 0)
		}
		lru := NewFALRU(12*64, 64)
		for _, op := range rec.Ops {
			lru.Access(op.Addr, op.Write)
		}
		opt := SimulateOPT(rec.Ops, 12*64, 64)
		return opt.Misses <= lru.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTBasicCounts(t *testing.T) {
	var rec access.Recorder
	// 3 distinct lines cycled through a 2-line cache: OPT keeps the one
	// with the nearest reuse.
	seq := []uint64{0, 64, 128, 0, 64, 128}
	for _, a := range seq {
		rec.Access(a, false)
	}
	st := SimulateOPT(rec.Ops, 2*64, 64)
	if st.Accesses != 6 {
		t.Fatalf("accesses %d", st.Accesses)
	}
	// OPT: fills 0,64; at 128 evict whichever is used furthest (64? no:
	// next uses are 0->3, 64->4, so evict 64), hit 0, miss 64 (evict 128
	// since it has no future use... its next use is 5), etc.
	if st.Misses > 5 || st.Misses < 4 {
		t.Fatalf("OPT misses %d out of plausible range", st.Misses)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits+misses != accesses: %+v", st)
	}
}

func TestOPTDirtyFlushCounted(t *testing.T) {
	var rec access.Recorder
	rec.Access(0, true)
	st := SimulateOPT(rec.Ops, 64, 64)
	if st.VictimsM != 1 || st.Flushed != 1 {
		t.Fatalf("final dirty line must flush: %+v", st)
	}
}

func TestFALRUMatchesSetAssociativeFullWays(t *testing.T) {
	// A set-associative cache with one set and LRU must agree exactly with
	// FALRU on hits/misses/victims.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		sa := mkCache(8, 8, PolicyLRU)
		fa := NewFALRU(8*64, 64)
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.IntN(32)) * 64
			w := rng.IntN(3) == 0
			sa.Access(addr, w)
			fa.Access(addr, w)
		}
		s1, s2 := sa.Stats(), fa.Stats()
		return s1.Hits == s2.Hits && s1.Misses == s2.Misses &&
			s1.VictimsM == s2.VictimsM && s1.VictimsE == s2.VictimsE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFALRUDistance(t *testing.T) {
	c := NewFALRU(4*64, 64)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	if d := c.LRUDistance(3 * 64); d != 0 {
		t.Fatalf("most recent should have distance 0, got %d", d)
	}
	if d := c.LRUDistance(0); d != 3 {
		t.Fatalf("oldest should have distance 3, got %d", d)
	}
	if d := c.LRUDistance(99 * 64); d != -1 {
		t.Fatalf("absent line should report -1, got %d", d)
	}
}

func TestStatsInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		c := mkCache(16, 4, PolicyLRU)
		for i := 0; i < 3000; i++ {
			c.Access(uint64(rng.IntN(100))*8, rng.IntN(2) == 0)
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		if st.FillsE != st.Misses {
			return false // write-allocate: every miss fills
		}
		// Victims can't exceed fills.
		return st.VictimsM+st.VictimsE <= st.FillsE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyFiltersTraffic(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, Policy: PolicyLRU},
		Config{SizeBytes: 32 * 64, LineBytes: 64, Assoc: 8, Policy: PolicyLRU},
	)
	// Hammer 2 lines: everything after the first touches hits in L1 and
	// never reaches L2.
	for i := 0; i < 100; i++ {
		h.Access(0, false)
		h.Access(64, false)
	}
	l2 := h.Level(1).Stats()
	if l2.Accesses != 2 {
		t.Fatalf("L2 should see only the two cold misses, saw %d", l2.Accesses)
	}
}

func TestHierarchyWritebackCascade(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 2 * 64, LineBytes: 64, Assoc: 2, Policy: PolicyLRU},
		Config{SizeBytes: 64 * 64, LineBytes: 64, Assoc: 8, Policy: PolicyLRU},
	)
	h.Access(0, true) // dirty in L1
	// Evict it from L1 with two conflicting lines.
	h.Access(1*64, false)
	h.Access(2*64, false)
	// The dirty victim must have been written into L2 (state M there).
	if s, ok := h.Level(1).Contains(0); !ok || s != Modified {
		t.Fatalf("dirty victim should be Modified in L2, got %v ok=%v", s, ok)
	}
	h.FlushDirty()
	if h.Stats().VictimsM != 1 {
		t.Fatalf("exactly one memory write-back expected, got %+v", h.Stats())
	}
}

func TestHierarchyMismatchedLinesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHierarchy(
		Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4},
		Config{SizeBytes: 4 * 128, LineBytes: 128, Assoc: 4},
	)
}

func TestPolicyKindString(t *testing.T) {
	for _, k := range []PolicyKind{PolicyLRU, PolicyClock3, PolicyFIFO, PolicyPLRU, PolicyRandom} {
		if k.String() == "" || k.String()[0] == 'P' && k != PolicyPLRU {
			t.Fatalf("bad name for %d: %q", int(k), k.String())
		}
	}
	if Modified.String() != "M" || Exclusive.String() != "E" || Invalid.String() != "I" {
		t.Fatal("state strings")
	}
}

func TestAccessCounterSink(t *testing.T) {
	var c access.Counter
	c.Access(0, true)
	c.Access(0, false)
	c.Access(0, false)
	if c.Writes != 1 || c.Reads != 2 {
		t.Fatalf("%+v", c)
	}
}

func TestLayoutDisjointRegions(t *testing.T) {
	l := access.NewLayout(64)
	a := l.NewRegion(10, 10)
	b := l.NewRegion(5, 5)
	endA := a.Addr(9, 9) + 8
	if b.Base < endA {
		t.Fatalf("regions overlap: a ends %d, b starts %d", endA, b.Base)
	}
	if b.Base%64 != 0 {
		t.Fatal("region not line aligned")
	}
	if a.Addr(2, 3) != a.Base+uint64(2*10+3)*8 {
		t.Fatal("row-major addressing broken")
	}
}

// TestSetAssocDoesNotAllocate pins zero allocations per access for every
// policy on a hit, a clean eviction and a dirty eviction, for a hierarchy
// access whose dirty L1 victim cascades into L2, and per RecordBatch of
// either.
func TestSetAssocDoesNotAllocate(t *testing.T) {
	const sets, assoc = 2, 4
	allocs := func(name string, run func(), count func() int64) {
		t.Helper()
		for i := 0; i < 4*assoc*sets; i++ {
			run()
		}
		before := count()
		if a := testing.AllocsPerRun(200, run); a != 0 {
			t.Errorf("%s: %v allocs per access", name, a)
		}
		if got := count() - before; got != 201 { // AllocsPerRun adds one warm-up run
			t.Errorf("%s: counted %d of 201 accesses, stream does not exercise it", name, got)
		}
	}
	for _, pol := range []PolicyKind{PolicyLRU, PolicyClock3, PolicyFIFO, PolicyPLRU, PolicyRandom} {
		c := mkCache(sets*assoc, assoc, pol)
		var k uint64
		fresh := func(write bool) func() { // a new line of set 0 each time: always evicts
			return func() {
				k++
				c.Access(k*sets*64, write)
			}
		}
		allocs(pol.String()+" hit", func() { c.Access(0, false) }, func() int64 { return c.Stats().Hits })
		allocs(pol.String()+" clean eviction", fresh(false), func() int64 { return c.Stats().VictimsE })
		c.FlushDirty()
		allocs(pol.String()+" dirty eviction", fresh(true), func() int64 { return c.Stats().VictimsM })
	}

	h := NewHierarchy(
		Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 2, Policy: PolicyLRU},
		Config{SizeBytes: 16 * 64, LineBytes: 64, Assoc: 4, Policy: PolicyClock3})
	var k uint64
	allocs("hierarchy cascading write-back", func() {
		k++
		h.Access(k*64, true)
	}, func() int64 { return h.Level(0).Stats().VictimsM })

	var batch []machine.Event
	for i := 0; i < 64; i++ {
		batch = append(batch, machine.Event{Kind: machine.EvTouch, Addr: uint64(i%40) * 64, Write: i%3 == 0})
		if i%16 == 0 {
			batch = append(batch, machine.Event{Kind: machine.EvLoad, Words: 1})
		}
	}
	c := mkCache(32, 4, PolicyClock3)
	for name, r := range map[string]machine.Recorder{"Cache": c, "Hierarchy": h} {
		if a := testing.AllocsPerRun(100, func() { r.RecordBatch(batch) }); a != 0 {
			t.Errorf("%s.RecordBatch: %v allocs per batch", name, a)
		}
	}
}

// TestSetAssocRecordBatchForwardsTouches checks RecordBatch against Access
// on the same touches, with non-touch events interleaved, for a Cache and a
// 3-level Hierarchy.
func TestSetAssocRecordBatchForwardsTouches(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 8 * 64, LineBytes: 64, Assoc: 2, Policy: PolicyLRU},
		{SizeBytes: 32 * 64, LineBytes: 64, Assoc: 4, Policy: PolicyPLRU},
		{SizeBytes: 128 * 64, LineBytes: 64, Assoc: 16, Policy: PolicyClock3},
	}
	type sim interface {
		Simulator
		machine.Recorder
		WantsTouch() bool
	}
	for _, mk := range []func() sim{
		func() sim { return New(cfgs[2]) },
		func() sim { return NewHierarchy(cfgs...) },
	} {
		rng := rand.New(rand.NewPCG(7, 7))
		direct, batched := mk(), mk()
		var events []machine.Event
		for i := 0; i < 20000; i++ {
			addr, write := rng.Uint64N(256*64), rng.IntN(4) == 0
			direct.Access(addr, write)
			events = append(events, machine.Event{Kind: machine.EvTouch, Addr: addr, Write: write})
			if i%7 == 0 {
				events = append(events, machine.Event{Kind: machine.EvStore, Words: 3, Addr: addr})
			}
		}
		batched.RecordBatch(events)
		if !batched.WantsTouch() {
			t.Fatalf("%T must subscribe to the touch stream", batched)
		}
		if direct.Stats() != batched.Stats() || direct.Stats().VictimsM == 0 {
			t.Fatalf("%T: batched %+v, direct %+v", batched, batched.Stats(), direct.Stats())
		}
	}
}
