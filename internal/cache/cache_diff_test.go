package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"writeavoid/internal/machine"
)

// Cache and Hierarchy are checked differentially against refCache and
// refHierarchy, the original per-set-slice implementation: after every chunk
// of accesses the full Stats of every level, and Contains on sampled
// addresses at every level, must agree exactly. The op stream and its
// special ops are the FALRU differential's (diffOp, opFlush, opReset,
// opCheck); the address modes are read for a set-associative geometry, with
// modeClustered packing every line into set 0 of every level.

// saCase is one differential run: the per-level configs (one config drives
// a bare Cache, more a Hierarchy), an address pool and an op stream over it.
// With batched set the flat-array side receives its accesses through
// RecordBatch, one batch per run of accesses between special ops.
type saCase struct {
	cfgs    []Config
	mode    int
	batched bool
	seed    int64
	ops     []diffOp
}

func (d saCase) String() string {
	s := fmt.Sprintf("mode=%d batched=%v seed=%d ops=%d", d.mode, d.batched, d.seed, len(d.ops))
	for _, c := range d.cfgs {
		s += fmt.Sprintf(" [%d lines × %d B, assoc %d, %v, wt=%v, seed %d]",
			c.Lines(), c.LineBytes, c.Assoc, c.Policy, c.WriteThrough, c.Seed)
	}
	return s
}

// saGeometry draws the levels of a case: a bare cache of 1 to 64 ways
// (sometimes one fully-associative set) three times in four, otherwise a 2-
// or 3-level hierarchy of smaller caches. Every level picks any policy, with
// PLRU only at power-of-two associativity up to 32, where the reference is
// correct, and sometimes write-through.
func saGeometry(rng *rand.Rand) []Config {
	lineBytes := 1 << rng.Intn(13)
	assocs, sets := []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64}, []int{1, 2, 4, 16, 64}
	n := 1
	if rng.Intn(4) == 0 {
		n = 2 + rng.Intn(2)
		assocs, sets = []int{1, 2, 3, 4, 8, 16}, []int{1, 2, 4, 8}
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		assoc, nsets := assocs[rng.Intn(len(assocs))], sets[rng.Intn(len(sets))]
		c := Config{SizeBytes: assoc * nsets * lineBytes, LineBytes: lineBytes, Assoc: assoc,
			Policy: PolicyKind(rng.Intn(5)), Seed: rng.Uint64(), WriteThrough: rng.Intn(8) == 0}
		switch rng.Intn(8) {
		case 0: // one fully-associative set, named by Assoc 0
			c.SizeBytes, c.Assoc = assoc*lineBytes, 0
		case 1: // associativity beyond the line count also means one set
			c.SizeBytes, c.Assoc = assoc*lineBytes, assoc+rng.Intn(4)
		}
		for c.Policy == PolicyPLRU && (assoc&(assoc-1) != 0 || assoc > 32) {
			c.Policy = PolicyKind(rng.Intn(5))
		}
		cfgs[i] = c
	}
	return cfgs
}

// saPool draws the case's addresses: a quarter more lines than the largest
// level holds, or than one set holds in modeClustered.
func saPool(d saCase, rng *rand.Rand) []uint64 {
	lineShift, maxLines, maxSets, maxAssoc := uint(0), 0, 1, 0
	for ls := d.cfgs[0].LineBytes; ls > 1; ls >>= 1 {
		lineShift++
	}
	for _, cfg := range d.cfgs {
		c := New(cfg)
		maxLines, maxSets, maxAssoc = max(maxLines, cfg.Lines()), max(maxSets, c.Sets()), max(maxAssoc, c.Assoc())
	}
	n := keySpan(maxLines)
	if d.mode == modeClustered {
		n = keySpan(maxAssoc)
	}
	pool := make([]uint64, n)
	lineBytes := uint64(1) << lineShift
	offset := func() uint64 { return rng.Uint64() & (lineBytes - 1) }
	stride := uint64(1) << rng.Intn(9)
	for i := range pool {
		switch d.mode {
		case modeDense:
			pool[i] = uint64(i)<<lineShift | offset()
		case modeFull64:
			pool[i] = rng.Uint64()
		case modeClustered: // line numbers that are multiples of every level's set count
			pool[i] = (uint64(i)*uint64(maxSets) + rng.Uint64()>>(lineShift+7)*uint64(maxSets)) << lineShift
		case modeStrided:
			pool[i] = uint64(i)*stride<<lineShift | offset()
		}
	}
	if d.mode == modeFull64 {
		pool[0], pool[len(pool)-1] = 0, ^uint64(0)
	}
	return pool
}

// saPair is the flat-array simulator and the reference under the same
// configs, level by level.
type saPair struct {
	sim Simulator
	ref interface {
		Access(uint64, bool)
		FlushDirty()
	}
	levels    []*Cache
	refLevels []*refCache
	batched   bool
	pending   []machine.Event
}

func newSAPair(cfgs []Config, batched bool) *saPair {
	p := &saPair{batched: batched}
	if len(cfgs) == 1 {
		c, r := New(cfgs[0]), newRefCache(cfgs[0])
		p.sim, p.ref, p.levels, p.refLevels = c, r, []*Cache{c}, []*refCache{r}
		return p
	}
	h, r := NewHierarchy(cfgs...), newRefHierarchy(cfgs...)
	p.sim, p.ref = h, r
	for i := range cfgs {
		p.levels = append(p.levels, h.Level(i))
		p.refLevels = append(p.refLevels, r.Level(i))
	}
	return p
}

func (p *saPair) access(addr uint64, write bool) {
	p.ref.Access(addr, write)
	if p.batched {
		p.pending = append(p.pending, machine.Event{Kind: machine.EvTouch, Addr: addr, Write: write},
			machine.Event{Kind: machine.EvLoad, Addr: addr, Words: 1})
		return
	}
	p.sim.Access(addr, write)
}

// drain hands the pending batch to RecordBatch.
func (p *saPair) drain() {
	if len(p.pending) > 0 {
		p.sim.(machine.Recorder).RecordBatch(p.pending)
		p.pending = p.pending[:0]
	}
}

func (p *saPair) compare(at int, pool []uint64, rng *rand.Rand) error {
	p.drain()
	for l, c := range p.levels {
		if a, b := c.Stats(), p.refLevels[l].Stats(); a != b {
			return fmt.Errorf("op %d level %d: stats %+v, reference %+v", at, l, a, b)
		}
	}
	if a, b := p.sim.Stats(), p.levels[len(p.levels)-1].Stats(); a != b {
		return fmt.Errorf("op %d: Stats %+v, last level %+v", at, a, b)
	}
	for k := 0; k < 8; k++ {
		addr := pool[rng.Intn(len(pool))]
		for l, c := range p.levels {
			s1, ok1 := c.Contains(addr)
			s2, ok2 := p.refLevels[l].Contains(addr)
			if s1 != s2 || ok1 != ok2 {
				return fmt.Errorf("op %d level %d: Contains(%#x) = %v,%v, reference %v,%v", at, l, addr, s1, ok1, s2, ok2)
			}
		}
	}
	return nil
}

// replaySADiff runs the case through both simulators and reports the first
// disagreement.
func replaySADiff(d saCase) error {
	p := newSAPair(d.cfgs, d.batched)
	rng := rand.New(rand.NewSource(d.seed))
	pool := saPool(d, rng)
	for i, op := range d.ops {
		switch op.key {
		case opFlush:
			p.drain()
			p.sim.FlushDirty()
			p.ref.FlushDirty()
		case opReset:
			p.drain()
			for l, c := range p.levels {
				c.ResetStats()
				p.refLevels[l].ResetStats()
			}
		case opCheck:
			if err := p.compare(i, pool, rng); err != nil {
				return err
			}
		default:
			p.access(pool[op.key%len(pool)], op.write)
		}
	}
	if err := p.compare(len(d.ops), pool, rng); err != nil {
		return err
	}
	p.sim.FlushDirty()
	p.ref.FlushDirty()
	return p.compare(len(d.ops)+1, pool, rng)
}

// saOps draws n ops over span pool entries: mostly accesses, a third of
// them writes, with flushes, stat resets and checks interleaved.
func saOps(rng *rand.Rand, n, span int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		switch r := rng.Intn(1000); {
		case r < 2:
			ops[i].key = opFlush
		case r < 4:
			ops[i].key = opReset
		case r < 30:
			ops[i].key = opCheck
		default:
			ops[i] = diffOp{key: rng.Intn(span), write: rng.Intn(3) == 0}
		}
	}
	return ops
}

// Generate draws a case for quick.Check.
func (saCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	d := saCase{cfgs: saGeometry(rng), mode: rng.Intn(numModes), batched: rng.Intn(2) == 0, seed: rng.Int63()}
	lines := 0
	for _, c := range d.cfgs {
		lines = max(lines, c.Lines())
	}
	d.ops = saOps(rng, 4*keySpan(lines)+rng.Intn(2000), keySpan(lines))
	return reflect.ValueOf(d)
}

func TestCacheMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	prop := func(d saCase) bool {
		if err := replaySADiff(d); err != nil {
			t.Logf("%v: %v", d, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzCacheDifferential draws the geometry from geo (saGeometry seeded with
// it) and decodes the stream two bytes an op like FuzzFALRUDifferential:
// 0xFFF0 flushes, 0xFFF1 resets every level's counters, 0xFFF2 compares,
// anything else accesses an address of the pool (bit 0 is the direction).
func FuzzCacheDifferential(f *testing.F) {
	f.Add(uint32(0), uint8(modeDense), false, int64(1), []byte{0, 1, 0, 2, 0, 4, 0xff, 0xf2, 0, 3})
	f.Add(uint32(7), uint8(modeClustered), true, int64(2), []byte{1, 1, 2, 2, 3, 3, 0xff, 0xf0, 1, 1, 4, 5, 6, 7})
	f.Add(uint32(12), uint8(modeFull64), false, int64(3), []byte{0, 9, 0xff, 0xf1, 0, 9, 0, 8})
	f.Add(uint32(99), uint8(modeStrided), true, int64(4), []byte{0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 0, 14})
	f.Fuzz(func(t *testing.T, geo uint32, mode uint8, batched bool, seed int64, raw []byte) {
		d := saCase{cfgs: saGeometry(rand.New(rand.NewSource(int64(geo)))), mode: int(mode) % numModes,
			batched: batched, seed: seed}
		lines := 0
		for _, c := range d.cfgs {
			lines = max(lines, c.Lines())
		}
		span := keySpan(lines)
		for i := 0; i+1 < len(raw); i += 2 {
			switch v := int(raw[i])<<8 | int(raw[i+1]); v {
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
		if err := replaySADiff(d); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	})
}
