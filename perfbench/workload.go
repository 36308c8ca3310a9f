package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"reflect"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/core"
	"writeavoid/internal/experiments"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

const (
	lineBytes = 64
	coBase    = 8 // element-kernel threshold of the cache-oblivious order (Fig 2a)
)

// cacheKind names the simulated cache an item replays through.
type cacheKind string

const (
	falru  cacheKind = "falru"  // 128 KiB fully-associative LRU (Figs 2 and 5)
	clock3 cacheKind = "clock3" // 128 KiB 16-way CLOCK3 (the realism cross-check)
	hier3  cacheKind = "hier3"  // 2/8/32 KiB three-level LRU (the multi-level study)
)

// traceSpec is one cache-replay item: the traced product C(M×L) += A(M×N)·B(N×L)
// in one instruction order, replayed through one cache model.
type traceSpec struct {
	Name    string
	Order   string // "co", "wa2" (two-level WA, Fig 4b) or "waml" (multi-level WA, Fig 4a)
	M, N, L int
	Levels  []core.TraceLevel // blocking, coarsest first; nil selects the CO recursion
	Cache   cacheKind
}

// waLevels is the three-level blocked order: contraction innermost at the top
// level, and at the two lower levels too when multiLevel is set.
func waLevels(l3, l2, l1 int, multiLevel bool) []core.TraceLevel {
	return []core.TraceLevel{
		{Block: l3, ContractionInner: true},
		{Block: l2, ContractionInner: multiLevel},
		{Block: l1, ContractionInner: multiLevel},
	}
}

// figreplaySpecs is the Fig 2/5 geometry at L3 block 64: each order at a
// middle dimension whose panels fit the cache (16) and one far beyond it (128).
func figreplaySpecs() []traceSpec {
	var out []traceSpec
	for _, mid := range []int{16, 128} {
		out = append(out,
			traceSpec{Name: fmt.Sprintf("co-m%d", mid), Order: "co", M: 256, N: mid, L: 256, Cache: falru},
			traceSpec{Name: fmt.Sprintf("wa2-m%d", mid), Order: "wa2", M: 256, N: mid, L: 256,
				Levels: waLevels(64, 16, 8, false), Cache: falru},
			traceSpec{Name: fmt.Sprintf("waml-m%d", mid), Order: "waml", M: 256, N: mid, L: 256,
				Levels: waLevels(64, 16, 8, true), Cache: falru},
		)
	}
	return out
}

// setassocSpecs mirrors Session.RealCacheCrossCheck (CLOCK3, 250×128×250)
// and Session.MultiLevel(false) (three-level LRU, 96×192×96).
func setassocSpecs() []traceSpec {
	return []traceSpec{
		{Name: "clock3-wa2", Order: "wa2", M: 250, N: 128, L: 250, Levels: waLevels(48, 16, 8, false), Cache: clock3},
		{Name: "clock3-co", Order: "co", M: 250, N: 128, L: 250, Cache: clock3},
		{Name: "hier3-waml", Order: "waml", M: 96, N: 192, L: 96, Levels: waLevels(16, 8, 4, true), Cache: hier3},
		{Name: "hier3-wa2", Order: "wa2", M: 96, N: 192, L: 96, Levels: waLevels(16, 8, 4, false), Cache: hier3},
	}
}

// emitter is a traced kernel: core.MatMulTrace or core.COMatMulTrace.
type emitter interface{ Run(access.Sink) }

// traceItem is a spec bound to its operand layout.
type traceItem struct {
	spec traceSpec
	emit emitter
}

// newTraceItem lays the operands out and shifts every Region.Base by shift
// bytes (a multiple of the line size, so line alignment is kept).
func newTraceItem(s traceSpec, shift uint64) traceItem {
	if s.Levels == nil {
		t := core.NewCOMatMulTrace(s.M, s.N, s.L, coBase, lineBytes)
		t.A.Base += shift
		t.B.Base += shift
		t.C.Base += shift
		return traceItem{s, t}
	}
	t := core.NewMatMulTrace(s.M, s.N, s.L, lineBytes, s.Levels...)
	t.A.Base += shift
	t.B.Base += shift
	t.C.Base += shift
	return traceItem{s, t}
}

// predictOps returns the exact number of accesses the item emits when every
// dimension and every coarser block is a whole number of finest blocks (for
// the CO order: base times a power of two), or ok=false when edges are
// ragged.
func (it traceItem) predictOps() (ops int64, ok bool) {
	if t, isWA := it.emit.(*core.MatMulTrace); isWA {
		fin := t.Levels[len(t.Levels)-1].Block
		for _, d := range []int{t.M, t.N, t.L} {
			if d%fin != 0 {
				return 0, false
			}
		}
		for _, l := range t.Levels {
			if l.Block%fin != 0 {
				return 0, false
			}
		}
		r, w := t.PredictTraceOps()
		return r + w, true
	}
	s := it.spec
	for _, d := range []int{s.M, s.N, s.L} {
		if d%coBase != 0 || (d/coBase)&(d/coBase-1) != 0 {
			return 0, false
		}
	}
	m, n, l := int64(s.M), int64(s.N), int64(s.L)
	cVisits := m * l * (n / coBase)
	return 2*m*n*l + 2*cVisits, true
}

// outputLines is the write lower bound: lines of C, which every order must
// write back at least once.
func (s traceSpec) outputLines() int64 {
	return (int64(s.M)*int64(s.L)*8 + lineBytes - 1) / lineBytes
}

// newSim builds the item's cache model.
func newSim(k cacheKind) cache.Simulator {
	switch k {
	case falru:
		return cache.NewFALRU(128*1024, lineBytes)
	case clock3:
		return cache.New(cache.Config{SizeBytes: 128 * 1024, LineBytes: lineBytes, Assoc: 16,
			Policy: cache.PolicyClock3})
	case hier3:
		return cache.NewHierarchy(
			cache.Config{SizeBytes: 2 * 1024, LineBytes: lineBytes, Assoc: 4, Policy: cache.PolicyLRU},
			cache.Config{SizeBytes: 8 * 1024, LineBytes: lineBytes, Assoc: 8, Policy: cache.PolicyLRU},
			cache.Config{SizeBytes: 32 * 1024, LineBytes: lineBytes, Assoc: 16, Policy: cache.PolicyLRU},
		)
	}
	panic("perfbench: unknown cache kind " + string(k))
}

// tracePrint is a trace item's fingerprint: the paper's counters after the
// final flush, of the memory-facing level.
type tracePrint struct {
	Ops      int64 `json:"ops"` // accesses emitted (first-level accesses)
	Accesses int64 `json:"accesses"`
	Hits     int64 `json:"hits"`
	VictimsM int64 `json:"victims_m"`
	VictimsE int64 `json:"victims_e"`
	FillsE   int64 `json:"fills_e"`
	// LevelVictimsM is victims.M per level, L1 first (hier3 only).
	LevelVictimsM []int64 `json:"level_victims_m,omitempty"`
}

func (p tracePrint) equal(q tracePrint) bool { return reflect.DeepEqual(p, q) }

// traceResult is one replay's outcome.
type traceResult struct {
	print  tracePrint
	misses int64
	reads  int64
	writes int64
}

func resultOf(sim cache.Simulator) traceResult {
	st := sim.Stats()
	r := traceResult{
		print: tracePrint{Ops: st.Accesses, Accesses: st.Accesses, Hits: st.Hits, VictimsM: st.VictimsM,
			VictimsE: st.VictimsE, FillsE: st.FillsE},
		misses: st.Misses, reads: st.Reads, writes: st.Writes,
	}
	if h, ok := sim.(*cache.Hierarchy); ok {
		for i := 0; i < h.NumLevels(); i++ {
			r.print.LevelVictimsM = append(r.print.LevelVictimsM, h.Level(i).Stats().VictimsM)
		}
		r.print.Ops = h.Level(0).Stats().Accesses
	}
	return r
}

// replay runs the item straight into its cache, the composed path the
// experiments take.
func (it traceItem) replay() traceResult {
	sim := newSim(it.spec.Cache)
	it.emit.Run(sim)
	sim.FlushDirty()
	return resultOf(sim)
}

// checker counts the items and invariants a run verified and those that
// failed; a failure is also reported on standard error.
type checker struct {
	attempted, failed int64
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		logf("FAIL "+format, args...)
	}
}

// verifyTrace checks one replay against its fingerprint row and the
// invariants every replay satisfies.
func (b *bench) verifyTrace(it traceItem, r traceResult) {
	key := b.name + "/" + it.spec.Name
	if b.record != nil {
		b.record.Trace[key] = r.print
	}
	want, ok := b.table.Trace[key]
	c := &b.chk
	c.check(ok && r.print.equal(want), "%s fingerprint %+v, table %+v", key, r.print, want)
	c.check(r.print.Hits+r.misses == r.print.Accesses, "%s hits+misses %d != accesses %d",
		key, r.print.Hits+r.misses, r.print.Accesses)
	c.check(r.reads+r.writes == r.print.Accesses, "%s reads+writes %d != accesses %d",
		key, r.reads+r.writes, r.print.Accesses)
	if ops, ok := it.predictOps(); ok {
		c.check(r.print.Ops == ops, "%s accesses %d != predicted trace ops %d", key, r.print.Ops, ops)
	}
}

// verifyCounted checks a section's (or with key "suite", a whole suite run's)
// fingerprint against its row.
func (b *bench) verifyCounted(key string, got countedPrint) {
	if b.record != nil {
		b.record.Counted[key] = got
	}
	want, ok := b.table.Counted[key]
	b.chk.check(ok && got == want, "counted/%s fingerprint %+v, table %+v", key, got, want)
}

// seedRand is the workload's generator: it draws the item order of every
// pass and the FALRU base shift.
func seedRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5eed)) }

// falruShift is the line-aligned offset added to every operand base on
// FALRU items. Fully associative LRU is translation-invariant, so the
// fingerprints must not move with it.
func falruShift(seed uint64) uint64 { return (seed%4093 + 1) * lineBytes }

// buildTraceItems binds specs to layouts for one seed.
func buildTraceItems(specs []traceSpec, seed uint64) []traceItem {
	items := make([]traceItem, len(specs))
	for i, s := range specs {
		var shift uint64
		if s.Cache == falru {
			shift = falruShift(seed)
		}
		items[i] = newTraceItem(s, shift)
	}
	return items
}

// countedSection is one touch-free wabench section, run at the quick sizes
// the strict CI gate uses.
type countedSection struct {
	name string
	run  func(s *experiments.Session) sectionOut
}

// sectionOut is what a section returns, reduced to the numbers the
// fingerprint and the metrics use.
type sectionOut struct {
	result    string // the section's rows or report, digested into the fingerprint
	netWords  int64  // dist sections: network words
	nvmWrites int64  // dist sections: NVM (L3) writes
	victimsM  int64  // sec5: dirty victims over its cache runs
	outLines  int64  // sec5: the output-lines lower bound over the same runs
	cgWrites  int64  // krylov: CG W12 writes
	caWrites  int64  // krylov: streaming CA-CG W12 writes
}

func countedSections() []countedSection {
	return []countedSection{
		{"sec2", func(s *experiments.Session) sectionOut { return sectionOut{result: s.Sec2Report()} }},
		{"sec3", func(s *experiments.Session) sectionOut { return sectionOut{result: fmt.Sprint(s.Sec3(true))} }},
		{"sec4", func(s *experiments.Session) sectionOut { return sectionOut{result: fmt.Sprint(s.Sec4(true))} }},
		{"sec5", func(s *experiments.Session) sectionOut {
			rows := s.Sec5(true)
			out := sectionOut{result: fmt.Sprint(rows)}
			for _, r := range rows {
				out.victimsM += r.COVictimsM + r.WAVictimsM
				out.outLines += 2 * r.OutputLines
			}
			return out
		}},
		{"table1", func(s *experiments.Session) sectionOut {
			rows := s.Table1(true)
			out := sectionOut{result: fmt.Sprint(rows)}
			for _, r := range rows {
				out.netWords += r.NetWords
				out.nvmWrites += r.NVMWrites
			}
			return out
		}},
		{"table2", func(s *experiments.Session) sectionOut {
			rows := s.Table2(true)
			out := sectionOut{result: fmt.Sprint(rows)}
			for _, r := range rows {
				out.netWords += r.NetWords
				out.nvmWrites += r.NVMWrites
			}
			return out
		}},
		{"lu", func(s *experiments.Session) sectionOut {
			rows := s.LU(true)
			out := sectionOut{result: fmt.Sprint(rows)}
			for _, r := range rows {
				out.netWords += r.NetWords
				out.nvmWrites += r.NVMWrites
			}
			return out
		}},
		{"krylov", func(s *experiments.Session) sectionOut {
			rows := s.Krylov(true)
			out := sectionOut{result: fmt.Sprint(rows)}
			for _, r := range rows {
				out.cgWrites += r.CGWrites
				out.caWrites += r.StreamWrites
			}
			return out
		}},
		{"sec9", func(s *experiments.Session) sectionOut { return sectionOut{result: s.Sec9Report(true)} }},
		{"smp", func(s *experiments.Session) sectionOut { return sectionOut{result: s.SMPReport(true)} }},
		{"omega", func(s *experiments.Session) sectionOut { return sectionOut{result: fmt.Sprint(s.Omega(true))} }},
	}
}

// countedPrint is a counted section's fingerprint, or with Phases and
// FlightDropped set, one whole suite run's.
type countedPrint struct {
	Events     int64  `json:"events"`      // Monitor.TotalEvents delta
	StoreWords int64  `json:"store_words"` // monitor-observed store words, all interfaces
	NetWords   int64  `json:"net_words"`
	NVMWrites  int64  `json:"nvm_writes"`
	Violations int64  `json:"violations"`
	Digest     string `json:"digest,omitempty"` // FNV-64a of the section's result
	// Suite rows only.
	Phases        int64 `json:"phases,omitempty"`
	FlightDropped int64 `json:"flight_dropped,omitempty"`
}

func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// observers is the full strict-gate wiring of one counted session; a nil
// field is a rung of the layer ladder that is not attached.
type observers struct {
	mon    *monitor.Monitor
	fr     *flight.Recorder
	stream *machine.StreamRecorder
	hists  *monitor.HistogramRecorder
	prof   *profile.Profiler
	reg    *monitor.Registry
}

// ladder rungs, cumulative: each attaches one more observer than the last.
const (
	rungBare = iota
	rungMonitor
	rungFlight
	rungStream
	rungHist
	rungProfile
	numRungs
)

var rungMetric = [numRungs]string{
	"experiments.kernels_s", "monitor.ns_per_event", "flight.ns_per_event",
	"machine.stream_ns_per_event", "monitor.hist_ns_per_event", "profile.ns_per_event",
}

// newSession builds a session with the observers of rungs up to top; rung
// rungProfile is everything `wabench -quick -check strict -flight 4096
// -stream` attaches.
func newSession(top int) (*experiments.Session, observers) {
	lv := machine.GenericLevels(3)
	s := experiments.NewSession()
	var o observers
	if top >= rungMonitor {
		o.reg = experiments.ConformanceChecks(true)
		o.mon = monitor.New(lv, o.reg)
		s.SetMonitor(o.mon)
	}
	if top >= rungFlight {
		o.fr = flight.New(4096, lv)
		s.SetFlight(o.fr)
	}
	if top >= rungStream {
		o.stream = machine.NewStreamRecorder(io.Discard, lv, 100000)
		s.SetStream(o.stream)
	}
	if top >= rungHist {
		o.hists = monitor.NewHistogramRecorder(lv)
		s.SetHistograms(o.hists)
	}
	if top >= rungProfile {
		o.prof = profile.NewProfiler(lv)
		s.SetProfile(o.prof)
	}
	return s, o
}

// finish closes the observers' last phase.
func (o observers) finish() error {
	if o.mon != nil {
		o.mon.Finish()
	}
	if o.hists != nil {
		o.hists.Finish()
	}
	if o.stream != nil {
		return o.stream.Close()
	}
	return nil
}

// monitorTotals reads the monitor's exact cumulative counts.
func monitorTotals(m *monitor.Monitor) (events, loadWords, storeWords int64) {
	events = m.TotalEvents() // syncs batch-buffered events first
	for _, i := range m.Snapshot().Interfaces {
		loadWords += i.LoadWords
		storeWords += i.StoreWords
	}
	return events, loadWords, storeWords
}

// runSection runs one section on an observed session and returns its
// output and fingerprint (counts as deltas of the session's monitor).
func runSection(sec countedSection, s *experiments.Session, o observers) (sectionOut, countedPrint) {
	e0, _, st0 := monitorTotals(o.mon)
	v0 := int64(len(o.mon.Violations()))
	out := sec.run(s)
	e1, _, st1 := monitorTotals(o.mon)
	return out, countedPrint{
		Events:     e1 - e0,
		StoreWords: st1 - st0,
		NetWords:   out.netWords,
		NVMWrites:  out.nvmWrites,
		Violations: int64(len(o.mon.Violations())) - v0,
		Digest:     digest(out.result),
	}
}
