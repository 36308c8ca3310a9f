// Command perfbench is the repository's benchmark: closed loops of
// back-to-back passes over the Figure 2/5 replay, the set-associative
// replay and the observed counted sections, each pass checked against the
// committed fingerprint table. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload figreplay --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1. A
// summary with sample counts and quartiles goes to standard error. See
// NOTES.md for the workloads, the metrics and the baseline.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

//go:embed fingerprints.json
var fingerprintJSON []byte

// fingerprints is the committed table of exact counts, keyed
// "<workload>/<item>" for trace items and by section name (plus "suite")
// for the counted workload.
type fingerprints struct {
	Trace   map[string]tracePrint   `json:"trace"`
	Counted map[string]countedPrint `json:"counted"`
}

func loadFingerprints() (*fingerprints, error) {
	var t fingerprints
	if err := json.Unmarshal(fingerprintJSON, &t); err != nil {
		return nil, fmt.Errorf("parsing fingerprints.json: %w", err)
	}
	return &t, nil
}

// countedReps is how many times a counted pass runs the section suite:
// enough for a pass of a few seconds.
const countedReps = 8

var workloadNames = []string{"figreplay", "setassoc", "counted"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var logOut io.Writer = os.Stderr

func logf(format string, args ...any) { fmt.Fprintf(logOut, "perfbench: "+format+"\n", args...) }

func run(args []string, stdout, stderr io.Writer) int {
	logOut = stderr
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figreplay, setassoc or counted")
	seed := fs.Uint64("seed", 1, "workload seed: item order per pass, FALRU base shift")
	seconds := fs.Int("seconds", 10, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		logf("need --seconds >= 1, --trace 0 or 1 and no positional arguments")
		return 2
	}
	// One P: the simulations are sequential, and the collector's work is
	// charged to the pass that caused it rather than to a second core
	// other tenants may hold.
	runtime.GOMAXPROCS(1)

	b, err := newBench(*name, *seed)
	if err != nil {
		logf("%v", err)
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = b.traced(dur, *out)
	} else {
		res, err = b.untraced(dur)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload at one seed.
type bench struct {
	name  string
	seed  uint64
	table *fingerprints
	rng   *rand.Rand
	chk   checker
	// record, when set, collects every fingerprint observed (the table
	// regeneration in the tests).
	record *fingerprints

	specs []traceSpec // trace workloads
	items []traceItem

	secs []countedSection // counted workload

	setups []unit // one setup before the first pass and one after each pass
}

func newBench(name string, seed uint64) (*bench, error) {
	var specs []traceSpec
	switch name {
	case "figreplay":
		specs = figreplaySpecs()
	case "setassoc":
		specs = setassocSpecs()
	case "counted":
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	b := &bench{name: name, seed: seed, specs: specs}
	if err := b.timedSetup(); err != nil {
		return nil, err
	}
	b.rng = seedRand(seed)
	return b, nil
}

// timedSetup runs and times one setup, then takes a host reference.
func (b *bench) timedSetup() error {
	runtime.GC()
	t0 := time.Now()
	if err := b.setup(); err != nil {
		return err
	}
	b.setups = append(b.setups, unit{secs: time.Since(t0).Seconds(), ref: hostRef()})
	return nil
}

// setup is everything a run does before its first timed pass: parse the
// fingerprint table, lay out the items and warm up, on the smallest item
// or, for the counted workload, on one observed suite run.
func (b *bench) setup() error {
	table, err := loadFingerprints()
	if err != nil {
		return err
	}
	b.table = table
	if b.specs == nil {
		b.secs = countedSections()
		s, o := newSession(rungProfile)
		for _, sec := range b.secs {
			_, fp := runSection(sec, s, o)
			b.verifyCounted(sec.name, fp)
		}
		return o.finish()
	}
	b.items = buildTraceItems(b.specs, b.seed)
	small := smallest(b.items, table, b.name)
	b.verifyTrace(small, small.replay())
	return nil
}

// smallest is the item that emits the fewest accesses.
func smallest(items []traceItem, table *fingerprints, workload string) traceItem {
	best := items[0]
	for _, it := range items[1:] {
		if table.Trace[workload+"/"+it.spec.Name].Ops < table.Trace[workload+"/"+best.spec.Name].Ops {
			best = it
		}
	}
	return best
}

// passStats is one timed pass.
type passStats struct {
	wall       float64 // seconds, the sum over units
	units      []unit  // trace workloads: one per item; counted: one per suite run
	accesses   int64   // simulated element accesses (counted: words moved)
	events     int64   // simulated events (counted: Monitor.TotalEvents)
	allocBytes uint64
	gcCycles   uint32
	victimsM   int64
	writeLB    int64

	// Counted passes only.
	counted     countedPrint // the fingerprint of one suite run
	checks      int          // predictions in the strict registry
	krylovRatio float64      // CG over streaming CA-CG W12 writes
}

type memMark struct {
	alloc uint64
	gc    uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC}
}

// timeUnit runs f as one unit of a pass: it adds f's seconds, allocations
// and collections to p, then takes a host reference (see hostref.go),
// which none of them include.
func (p *passStats) timeUnit(f func()) {
	m0 := readMem()
	t0 := time.Now()
	f()
	secs := time.Since(t0).Seconds()
	m1 := readMem()
	p.wall += secs
	p.allocBytes += m1.alloc - m0.alloc
	p.gcCycles += m1.gc - m0.gc
	p.units = append(p.units, unit{secs: secs, ref: hostRef()})
}

// pass runs one timed pass in a fresh order drawn from the seed.
func (b *bench) pass() passStats {
	runtime.GC() // start every pass from the same heap state
	if b.specs == nil {
		return b.countedPass(nil)
	}
	order := b.rng.Perm(len(b.items))
	results := make([]traceResult, len(b.items))
	var ps passStats
	for _, i := range order {
		ps.timeUnit(func() { results[i] = b.items[i].replay() })
	}
	for i, r := range results {
		b.verifyTrace(b.items[i], r)
		ps.accesses += r.print.Ops
		ps.victimsM += r.print.VictimsM
		ps.writeLB += b.items[i].spec.outputLines()
	}
	ps.events = ps.accesses
	return ps
}

// countedPass runs the section suite countedReps times, each time on a
// fresh fully observed session and in a fresh order. With spans set, every
// section call is recorded as a span.
func (b *bench) countedPass(spans *spanLog) passStats {
	type run struct {
		sec int
		out sectionOut
		fp  countedPrint
	}
	// A suite keeps only numbers, so no session outlives its repetition.
	type suite struct {
		runs                        []run
		finishErr                   error
		events, accesses            int64
		violations, phases, dropped int64
		checks                      int
	}
	suites := make([]suite, countedReps)
	var ps passStats
	for rep := range suites {
		su := &suites[rep]
		var o observers
		ps.timeUnit(func() {
			s, so := newSession(rungProfile)
			o = so
			for _, i := range b.rng.Perm(len(b.secs)) {
				id := spans.begin("experiments." + b.secs[i].name)
				out, fp := runSection(b.secs[i], s, o)
				spans.end(id)
				su.runs = append(su.runs, run{i, out, fp})
			}
			su.finishErr = o.finish()
		})
		var loads, stores int64
		su.events, loads, stores = monitorTotals(o.mon)
		su.accesses = loads + stores
		su.violations = int64(len(o.mon.Violations()))
		su.phases = o.mon.Phases()
		su.dropped = o.fr.Stats().Dropped
		su.checks = o.reg.Len()
	}

	var cg, ca int64
	for _, su := range suites {
		b.chk.check(su.finishErr == nil, "counted: closing the stream recorder: %v", su.finishErr)
		var total countedPrint
		for _, r := range su.runs {
			b.verifyCounted(b.secs[r.sec].name, r.fp)
			total.Events += r.fp.Events
			total.StoreWords += r.fp.StoreWords
			total.NetWords += r.fp.NetWords
			total.NVMWrites += r.fp.NVMWrites
			ps.victimsM += r.out.victimsM
			ps.writeLB += r.out.outLines
			cg += r.out.cgWrites
			ca += r.out.caWrites
		}
		total.Violations = su.violations
		total.Phases = su.phases
		total.FlightDropped = su.dropped
		b.verifyCounted("suite", total)
		b.chk.check(su.events == total.Events, "counted: monitor events %d != sum over sections %d",
			su.events, total.Events)
		b.chk.check(total.Violations == 0, "counted: %d strict violations", total.Violations)
		ps.accesses += su.accesses
		ps.events += su.events
		ps.counted = total
		ps.checks = su.checks
	}
	ps.krylovRatio = float64(cg) / float64(ca)
	return ps
}

// loop runs passes back to back until d has elapsed (at least one), with
// a setup repetition after each pass.
func (b *bench) loop(d time.Duration) ([]passStats, error) {
	var out []passStats
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		out = append(out, b.pass())
		if err := b.timedSetup(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// untraced is the end-to-end run.
func (b *bench) untraced(d time.Duration) (result, error) {
	passes, err := b.loop(d)
	if err != nil {
		return result{}, err
	}
	col := func(f func(p passStats) float64) []float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return v
	}
	walls := col(func(p passStats) float64 { return p.wall })
	// Timings are medians at the host reference's nominal speed (see
	// hostref.go): a pass is the sum of its units, each at the speed the
	// reference taken right after it measured.
	wall := median(col(func(p passStats) float64 { return atNominal(p.units...) }))
	var setupsRaw, setupsAtNominal []float64
	for _, u := range b.setups {
		setupsRaw = append(setupsRaw, u.secs)
		setupsAtNominal = append(setupsAtNominal, atNominal(u))
	}
	value := map[string]float64{
		"setup_s":         median(setupsAtNominal),
		"wall_s":          wall,
		"accesses_per_s":  float64(passes[0].accesses) / wall,
		"events_per_s":    float64(passes[0].events) / wall,
		"alloc_mb":        median(col(func(p passStats) float64 { return float64(p.allocBytes) / 1e6 })),
		"peak_rss_mb":     peakRSSMB(),
		"writeback_ratio": median(col(func(p passStats) float64 { return float64(p.victimsM) / float64(p.writeLB) })),
	}
	res := result{Metrics: map[string]metric{}, Attempted: b.chk.attempted, Failed: b.chk.failed}
	var refs []float64
	for _, p := range passes {
		for _, u := range p.units {
			refs = append(refs, u.ref)
		}
	}
	for _, u := range b.setups {
		refs = append(refs, u.ref)
	}
	logf("%s seed %d: %d passes, %d setups, %d host references; raw seconds:", b.name, b.seed,
		len(passes), len(b.setups), len(refs))
	logSeries("setup", setupsRaw)
	logSeries("pass", walls)
	logSeries("host reference", refs)
	for _, em := range endToEndMetrics {
		res.Metrics[em.name] = metric{value[em.name], em.unit}
		logf("  %-16s %.6g %s", em.name, value[em.name], em.unit)
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the linear-interpolation quantile of the sorted copy of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func logSeries(name string, v []float64) {
	logf("  %-16s min %-11.6g p25 %-11.6g median %-11.6g p75 %-11.6g max %-11.6g (n=%d)",
		name, minOf(v), quantile(v, 0.25), median(v), quantile(v, 0.75), maxOf(v), len(v))
}
