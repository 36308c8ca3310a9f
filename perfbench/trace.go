package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"writeavoid/internal/access"
	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// The traced run decomposes host time per layer by timing calls into each
// layer's public functions from outside: spans are kept in memory and
// written at exit as a Chrome trace-event file (opens in Perfetto). Nothing
// inside the program is instrumented.

// decompBound is how far the layer self times may sum away from the
// untraced pass they decompose before the run counts a failed check. Timed
// apart, emission and cache replay lose the instruction-level overlap they
// have when composed, so their sum reads 1.1-1.3 times the composed pass on
// figreplay; the ladder rungs of the counted workload sum to within a few
// per cent of the fully observed pass.
//
// The ratio is taken per iteration, between timings made within seconds of
// each other, and the check reads the median over the iterations: a slow
// stretch of a shared host then slows both sides of a ratio, or only a
// minority of the ratios, rather than setting a part timed in a slow
// stretch against a pass timed in a quiet one.
const decompBound = 0.4

// chunkOps is the replay buffer of the traced run: the emitter fills it and
// only the cache loop over it is timed as cache self time.
const chunkOps = 64 << 10

type span struct {
	name, detail string
	parent       int
	start, end   time.Duration
}

// spanLog is an in-memory span stack. A nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	stack []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) int { return l.beginDetail(name, "") }

func (l *spanLog) beginDetail(name, detail string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{name: name, detail: detail, parent: parent, start: time.Since(l.t0)})
	id := len(l.spans) - 1
	l.stack = append(l.stack, id)
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].end = time.Since(l.t0)
	l.stack = l.stack[:len(l.stack)-1]
}

// selfSince sums self time (duration minus the children's) per span name
// over the spans recorded from index from on.
func (l *spanLog) selfSince(from int) map[string]float64 {
	self := map[string]float64{}
	for i := from; i < len(l.spans); i++ {
		s := l.spans[i]
		d := (s.end - s.start).Seconds()
		self[s.name] += d
		if s.parent >= from {
			self[l.spans[s.parent].name] -= d
		}
	}
	return self
}

// write renders the spans with profile.TraceBuilder.
func (l *spanLog) write(path, title string) error {
	tb := profile.NewTraceBuilder()
	tb.AddProcessName(1, title)
	tb.AddThreadName(1, 1, "run")
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range l.spans {
		var args map[string]any
		if s.detail != "" {
			args = map[string]any{"item": s.detail}
		}
		tb.AddSpan(1, 1, s.name, us(s.start), us(s.end), args)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tb.Write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunkSink buffers accesses and hands full chunks to flush.
type chunkSink struct {
	buf   []access.Op
	flush func([]access.Op)
}

func newChunkSink(flush func([]access.Op)) *chunkSink {
	return &chunkSink{buf: make([]access.Op, 0, chunkOps), flush: flush}
}

func (c *chunkSink) Access(addr uint64, write bool) {
	c.buf = append(c.buf, access.Op{Addr: addr, Write: write})
	if len(c.buf) == cap(c.buf) {
		c.drain()
	}
}

func (c *chunkSink) drain() {
	if len(c.buf) > 0 {
		c.flush(c.buf)
		c.buf = c.buf[:0]
	}
}

// tracedTracePass is a figreplay or setassoc pass in chunked form: each
// item's emission runs under a core.emit.<order> span and each buffered
// chunk's cache loop under a cache.<kind> child span.
func (b *bench) tracedTracePass(l *spanLog) (wall float64, from int) {
	runtime.GC()
	order := b.rng.Perm(len(b.items))
	results := make([]traceResult, len(b.items))
	from = len(l.spans)
	t0 := time.Now()
	pid := l.begin("pass")
	for _, i := range order {
		it := b.items[i]
		id := l.beginDetail("core.emit."+it.spec.Order, it.spec.Name)
		sim := newSim(it.spec.Cache)
		cacheSpan := "cache." + string(it.spec.Cache)
		cs := newChunkSink(func(ops []access.Op) {
			cid := l.begin(cacheSpan)
			for _, op := range ops {
				sim.Access(op.Addr, op.Write)
			}
			l.end(cid)
		})
		it.emit.Run(cs)
		cs.drain()
		cid := l.begin(cacheSpan)
		sim.FlushDirty()
		l.end(cid)
		l.end(id)
		results[i] = resultOf(sim)
	}
	l.end(pid)
	wall = time.Since(t0).Seconds()
	for i, r := range results {
		b.verifyTrace(b.items[i], r)
	}
	return wall, from
}

// timeLayers times each layer of a trace workload in isolation: emission
// into an access.Counter per order, and for the WA items the machine
// dispatch of buffered ops through Hierarchy.Touch → batch → TraceRecorder
// → Counter. It returns nanoseconds per order and for the dispatch.
func (b *bench) timeLayers(l *spanLog) (emitNs map[string]float64, touchNs float64) {
	emitNs = map[string]float64{}
	for _, it := range b.items {
		want := b.table.Trace[b.name+"/"+it.spec.Name].Ops
		var c access.Counter
		id := l.beginDetail("layer.emit."+it.spec.Order, it.spec.Name)
		t0 := time.Now()
		it.emit.Run(&c)
		emitNs[it.spec.Order] += float64(time.Since(t0).Nanoseconds())
		l.end(id)
		b.chk.check(c.Reads+c.Writes == want, "%s/%s: emitted %d accesses, table %d",
			b.name, it.spec.Name, c.Reads+c.Writes, want)
	}
	for _, it := range b.items {
		if it.spec.Levels == nil {
			continue // the CO order emits straight to its sink
		}
		var c access.Counter
		h := machine.New(false, machine.GenericLevels(len(it.spec.Levels)+1)...)
		h.Attach(machine.NewTraceRecorder(&c))
		id := l.beginDetail("layer.machine.touch", it.spec.Name)
		cs := newChunkSink(func(ops []access.Op) {
			t0 := time.Now()
			for _, op := range ops {
				h.Touch(op.Addr, op.Write)
			}
			h.Flush()
			touchNs += float64(time.Since(t0).Nanoseconds())
		})
		it.emit.Run(cs)
		cs.drain()
		l.end(id)
		want := b.table.Trace[b.name+"/"+it.spec.Name].Ops
		b.chk.check(c.Reads+c.Writes == want, "%s/%s: dispatched %d touches, table %d",
			b.name, it.spec.Name, c.Reads+c.Writes, want)
	}
	return emitNs, touchNs
}

// reuseFrac is the share of the smallest item's line-granular accesses
// whose LRU stack distance is below 8.
func (b *bench) reuseFrac(l *spanLog) float64 {
	small := smallest(b.items, b.table, b.name)
	rr := profile.NewReuseRecorder()
	id := l.beginDetail("layer.profile.reuse", small.spec.Name)
	small.emit.Run(access.SinkFunc(func(addr uint64, write bool) {
		rr.Touch(addr&^(lineBytes-1), write)
	}))
	l.end(id)
	var near int64
	for _, h := range []map[int64]int64{rr.ReadDist(), rr.WriteDist()} {
		for d, n := range h {
			if d < 8 {
				near += n
			}
		}
	}
	return float64(near) / float64(rr.Touches())
}

// traced is the per-layer run. Every layer is timed once per iteration
// until d has elapsed, and each timing reports its fastest iteration, like
// the untraced run.
func (b *bench) traced(d time.Duration, outDir string) (result, error) {
	l := newSpanLog()
	m := map[string]float64{}
	for _, name := range perLayerMetrics() {
		m[name] = 0
	}
	var err error
	if b.specs == nil {
		err = b.tracedCounted(d, l, m)
	} else {
		b.tracedTrace(d, l, m)
	}
	if err != nil {
		return result{}, err
	}
	m["failed_frac"] = float64(b.chk.failed) / float64(b.chk.attempted)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
	if err := l.write(path, "perfbench "+b.name); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans written to %s", path)
	res := result{Metrics: map[string]metric{}, Attempted: b.chk.attempted, Failed: b.chk.failed}
	for name, v := range m {
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	return res, nil
}

// tracedTrace alternates an untraced pass, a traced (chunked) pass and the
// isolated layer timings.
func (b *bench) tracedTrace(d time.Duration, l *spanLog, m map[string]float64) {
	ops := func(keep func(traceSpec) bool) int64 {
		var n int64
		for _, it := range b.items {
			if keep(it.spec) {
				n += b.table.Trace[b.name+"/"+it.spec.Name].Ops
			}
		}
		return n
	}
	var untraced, tracedWall, cacheSelf, touch, ratios []float64
	var alloc, gcs []float64
	emit := map[string][]float64{}
	cacheNs := map[cacheKind][]float64{}
	kinds := map[cacheKind]bool{}
	for _, it := range b.items {
		kinds[it.spec.Cache] = true
	}
	start := time.Now()
	for len(untraced) == 0 || time.Since(start) < d {
		p := b.pass()
		untraced = append(untraced, p.wall)
		alloc = append(alloc, float64(p.allocBytes)/float64(p.accesses))
		gcs = append(gcs, float64(p.gcCycles))

		wall, from := b.tracedTracePass(l)
		tracedWall = append(tracedWall, wall)
		self := l.selfSince(from)
		var sum float64
		for kind := range kinds {
			t := self["cache."+string(kind)]
			cacheNs[kind] = append(cacheNs[kind], t*1e9)
			sum += t
		}
		cacheSelf = append(cacheSelf, sum)

		runtime.GC()
		e, t := b.timeLayers(l)
		parts := sum
		for order, ns := range e {
			emit[order] = append(emit[order], ns)
			parts += ns / 1e9
		}
		touch = append(touch, t)
		ratios = append(ratios, parts/p.wall)
	}

	var emitSelf float64
	for order, ns := range emit {
		m["core.emit_ns_per_access."+order] = minOf(ns) / float64(ops(func(s traceSpec) bool { return s.Order == order }))
		emitSelf += minOf(ns) / 1e9
	}
	if n := ops(func(s traceSpec) bool { return s.Levels != nil }); n > 0 {
		m["machine.touch_ns_per_access"] = minOf(touch) / float64(n)
	}
	for kind, ns := range cacheNs {
		m["cache."+string(kind)+"_ns_per_access"] = minOf(ns) / float64(ops(func(s traceSpec) bool { return s.Cache == kind }))
	}
	for _, it := range b.items {
		fp := b.table.Trace[b.name+"/"+it.spec.Name]
		n := it.spec.Name
		m["cache.accesses."+n] = float64(fp.Accesses)
		m["cache.hits."+n] = float64(fp.Hits)
		m["cache.victims_m."+n] = float64(fp.VictimsM)
		m["cache.victims_e."+n] = float64(fp.VictimsE)
		m["cache.fills_e."+n] = float64(fp.FillsE)
		for lvl, v := range fp.LevelVictimsM {
			m[fmt.Sprintf("cache.hier3_l%d_victims_m", lvl+1)] += float64(v)
		}
	}
	// Emission alone plus the cache loops alone should add up to the
	// composed pass, in which the emitter calls the cache directly.
	decomp := median(ratios)
	m["trace.mru_reuse_frac"] = b.reuseFrac(l)
	m["trace.decomp_ratio"] = decomp
	m["trace.overhead_s"] = minOf(tracedWall) - minOf(untraced)
	m["go.alloc_bytes_per_access"] = median(alloc)
	m["go.gc_cycles"] = median(gcs)
	b.chk.check(math.Abs(decomp-1) <= decompBound,
		"%s: emission plus cache self times sum to %.3f of the untraced pass", b.name, decomp)
	logf("%s traced: %d iterations; untraced %.3fs traced %.3fs; emission %.3fs + cache %.3fs; median per-iteration ratio %.3f",
		b.name, len(untraced), minOf(untraced), minOf(tracedWall), emitSelf, minOf(cacheSelf), decomp)
	logSeries("decomposition", ratios)
}

// tracedCounted alternates a ladder sweep, an untraced pass and a traced
// pass whose section calls are spans. The ladder is cumulative: rung r
// attaches one more observer than rung r-1, and its cost per monitored
// event is the difference of the two rungs' fastest sweeps.
func (b *bench) tracedCounted(d time.Duration, l *spanLog, m map[string]float64) error {
	var suiteEvents int64
	for _, sec := range b.secs {
		suiteEvents += b.table.Counted[sec.name].Events
	}
	rungs := make([][]float64, numRungs)
	var untraced, tracedWall, ratios []float64
	secSelf := map[string][]float64{}
	var last passStats
	start := time.Now()
	for len(untraced) == 0 || time.Since(start) < d {
		for r := range rungs {
			t, err := b.rung(r, l)
			if err != nil {
				return err
			}
			rungs[r] = append(rungs[r], t)
		}
		last = b.pass()
		untraced = append(untraced, last.wall)
		// The top rung once more, on the other side of the pass; the
		// faster of its two timings sets the iteration's ratio.
		top, err := b.rung(numRungs-1, l)
		if err != nil {
			return err
		}
		top = min(top, rungs[numRungs-1][len(rungs[numRungs-1])-1])
		ratios = append(ratios, top/(last.wall/countedReps))

		runtime.GC()
		from := len(l.spans)
		pid := l.begin("pass")
		tp := b.countedPass(l)
		l.end(pid)
		tracedWall = append(tracedWall, tp.wall)
		self := l.selfSince(from)
		for _, sec := range b.secs {
			secSelf[sec.name] = append(secSelf[sec.name], self["experiments."+sec.name]/countedReps)
		}
	}
	m[rungMetric[0]] = minOf(rungs[0])
	for r := 1; r < numRungs; r++ {
		m[rungMetric[r]] = (minOf(rungs[r]) - minOf(rungs[r-1])) / float64(suiteEvents) * 1e9
	}
	for _, name := range []string{"sec3", "sec5", "table1", "krylov", "smp", "omega"} {
		m["experiments."+name+"_s"] = minOf(secSelf[name])
	}
	// The rungs telescope to the top one, which carries every observer
	// the untraced pass does.
	decomp := median(ratios)
	c := last.counted
	m["monitor.events"] = float64(c.Events)
	m["monitor.phases"] = float64(c.Phases)
	m["monitor.checks"] = float64(last.checks)
	m["monitor.violations"] = float64(c.Violations)
	m["flight.dropped"] = float64(c.FlightDropped)
	m["dist.net_words"] = float64(b.table.Counted["table1"].NetWords)
	m["pmm.nvm_writes"] = float64(b.table.Counted["table2"].NVMWrites)
	m["plu.nvm_writes"] = float64(b.table.Counted["lu"].NVMWrites)
	m["krylov.write_ratio"] = last.krylovRatio
	m["trace.decomp_ratio"] = decomp
	m["trace.overhead_s"] = minOf(tracedWall) - minOf(untraced)
	m["go.alloc_bytes_per_access"] = float64(last.allocBytes) / float64(last.accesses)
	m["go.gc_cycles"] = float64(last.gcCycles)
	b.chk.check(math.Abs(decomp-1) <= decompBound,
		"counted: the ladder sums to %.3f of the fully observed pass", decomp)
	logf("counted traced: %d iterations; untraced %.3fs traced %.3fs; ladder top rung %.3f of the untraced suite (median per-iteration ratio)",
		len(untraced), minOf(untraced), minOf(tracedWall), decomp)
	logSeries("decomposition", ratios)
	return nil
}

// rung times one suite run on a fresh session with the observers of rungs
// up to top attached, and returns its seconds.
func (b *bench) rung(top int, l *spanLog) (float64, error) {
	runtime.GC()
	id := l.begin(rungMetric[top])
	t0 := time.Now()
	s, o := newSession(top)
	for _, i := range b.rng.Perm(len(b.secs)) {
		b.secs[i].run(s)
	}
	err := o.finish()
	t := time.Since(t0).Seconds()
	l.end(id)
	if o.mon != nil {
		v := len(o.mon.Violations())
		b.chk.check(v == 0, "counted ladder rung %d: %d strict violations", top, v)
	}
	return t, err
}
