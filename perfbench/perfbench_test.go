package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"writeavoid/internal/core"
	"writeavoid/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite fingerprints.json from one pass of every workload")

func newTable() *fingerprints {
	return &fingerprints{Trace: map[string]tracePrint{}, Counted: map[string]countedPrint{}}
}

func mustTable(t *testing.T) *fingerprints {
	t.Helper()
	table, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestUpdateFingerprints regenerates the committed table:
//
//	go test -run TestUpdateFingerprints -update
func TestUpdateFingerprints(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate fingerprints.json")
	}
	rec := newTable()
	for _, name := range workloadNames {
		b, err := newBench(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b.record = rec
		b.pass()
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("fingerprints.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFigreplayMatchesFigures cross-checks every figreplay row once against
// the matching point of Session.Fig2(true) and Session.Fig5(true).
func TestFigreplayMatchesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Figure 2 and 5 sweeps")
	}
	table := mustTable(t)
	s := experiments.NewSession()
	panels := map[string]experiments.FigPanel{}
	for _, p := range append(s.Fig2(true), s.Fig5(true)...) {
		panels[p.Name] = p
	}
	panelOf := map[string]string{
		"co":   "fig2a cache-oblivious",
		"wa2":  "fig2 two-level WA L3=64",
		"waml": "fig5 multi-level order L3=64",
	}
	for _, spec := range figreplaySpecs() {
		row := table.Trace["figreplay/"+spec.Name]
		var pt *experiments.FigPoint
		for i, p := range panels[panelOf[spec.Order]].Points {
			if p.Mid == spec.N {
				pt = &panels[panelOf[spec.Order]].Points[i]
			}
		}
		if pt == nil {
			t.Fatalf("%s: no point at mid %d in panel %q", spec.Name, spec.N, panelOf[spec.Order])
		}
		got := [3]int64{row.VictimsM, row.VictimsE, row.FillsE}
		want := [3]int64{pt.VictimsM, pt.VictimsE, pt.FillsE}
		if got != want {
			t.Errorf("%s: table victims.M/E, fills.E %v, figure %v", spec.Name, got, want)
		}
	}
	// Fig 5's two-level column is the same order as Fig 2's WA panel.
	if !reflect.DeepEqual(panels["fig5 two-level order L3=64"].Points, panels["fig2 two-level WA L3=64"].Points) {
		t.Error("Fig 5 two-level order and Fig 2 WA panel disagree at L3=64")
	}
}

// TestSetassocMatchesSessions cross-checks the setassoc rows against the
// sections they mirror.
func TestSetassocMatchesSessions(t *testing.T) {
	table := mustTable(t)
	s := experiments.NewSession()
	wa, co := s.RealCacheCrossCheck()
	if got := table.Trace["setassoc/clock3-wa2"].VictimsM; got != wa {
		t.Errorf("clock3-wa2 victims.M %d, RealCacheCrossCheck %d", got, wa)
	}
	if got := table.Trace["setassoc/clock3-co"].VictimsM; got != co {
		t.Errorf("clock3-co victims.M %d, RealCacheCrossCheck %d", got, co)
	}
	rows := s.MultiLevel(false)
	for i, name := range []string{"hier3-waml", "hier3-wa2"} {
		r := rows[i]
		want := []int64{r.L1VictimsM, r.L2VictimsM, r.L3VictimsM}
		if got := table.Trace["setassoc/"+name].LevelVictimsM; !reflect.DeepEqual(got, want) {
			t.Errorf("%s per-level victims.M %v, MultiLevel(%s) %v", name, got, r.Order, want)
		}
	}
}

// TestSeedInvariance: two seeds shift the FALRU operands and reorder the
// items, yet give bit-identical fingerprints over the same item set.
func TestSeedInvariance(t *testing.T) {
	var recs []*fingerprints
	var bases []uint64
	for _, seed := range []uint64{1, 977} {
		b, err := newBench("figreplay", seed)
		if err != nil {
			t.Fatal(err)
		}
		b.record = newTable()
		b.pass()
		if b.chk.failed != 0 {
			t.Fatalf("seed %d: %d of %d checks failed", seed, b.chk.failed, b.chk.attempted)
		}
		recs = append(recs, b.record)
		bases = append(bases, b.items[0].emit.(*core.COMatMulTrace).A.Base)
	}
	if bases[0] == bases[1] {
		t.Fatalf("both seeds place A at %#x", bases[0])
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("fingerprints differ between seeds:\n%+v\n%+v", recs[0].Trace, recs[1].Trace)
	}
	if len(recs[0].Trace) != len(figreplaySpecs()) {
		t.Errorf("%d items fingerprinted, want %d", len(recs[0].Trace), len(figreplaySpecs()))
	}
}

// TestFingerprintsHaveTeeth: plausible regressions trip the fingerprints.
func TestFingerprintsHaveTeeth(t *testing.T) {
	table := mustTable(t)
	specOf := func(name string) traceSpec {
		for _, s := range figreplaySpecs() {
			if s.Name == name {
				s.Levels = append([]core.TraceLevel(nil), s.Levels...)
				return s
			}
		}
		t.Fatalf("no item %s", name)
		return traceSpec{}
	}
	failedFrac := func(spec traceSpec) float64 {
		b := &bench{name: "figreplay", table: table}
		it := newTraceItem(spec, 0)
		b.verifyTrace(it, it.replay())
		return float64(b.chk.failed) / float64(b.chk.attempted)
	}
	for _, tc := range []struct {
		name, item string
		mutate     func(*traceSpec)
	}{
		{"L3 block off by one", "wa2-m16", func(s *traceSpec) { s.Levels[0].Block-- }},
		{"swapped ContractionInner", "waml-m128", func(s *traceSpec) {
			s.Levels[1].ContractionInner = !s.Levels[1].ContractionInner
			s.Levels[2].ContractionInner = !s.Levels[2].ContractionInner
		}},
		{"doubled sweep point", "co-m16", func(s *traceSpec) { s.N *= 2 }},
	} {
		spec := specOf(tc.item)
		if f := failedFrac(spec); f != 0 {
			t.Fatalf("%s: unperturbed item fails (failed_frac %g)", tc.item, f)
		}
		tc.mutate(&spec)
		if f := failedFrac(spec); f <= 0 {
			t.Errorf("%s on %s: failed_frac %g, want > 0", tc.name, tc.item, f)
		}
	}

	// A counted section at the full instead of the quick size.
	b := &bench{name: "counted", table: table}
	s, o := newSession(rungProfile)
	_, fp := runSection(countedSection{"sec4", func(s *experiments.Session) sectionOut {
		return sectionOut{result: fmt.Sprint(s.Sec4(false))}
	}}, s, o)
	b.verifyCounted("sec4", fp)
	if b.chk.failed == 0 {
		t.Error("sec4 at the full size matches the quick-size fingerprint")
	}
}

// TestResultLines runs the command end to end in both modes and checks
// that the last line reports exactly the metrics BENCHMARK.json declares.
func TestResultLines(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload, trace string
		want            []struct{ Name, Unit string }
	}{
		{"counted", "0", spec.EndToEnd},
		{"setassoc", "1", spec.PerLayer},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", tc.workload, "--seed", "3", "--seconds", "1", "--trace", tc.trace,
			"--out", t.TempDir()}
		if rc := run(args, &stdout, &stderr); rc != 0 {
			t.Fatalf("%v: exit %d\n%s", args, rc, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%v: correct %v, %d of %d failed", args, res.Correct, res.Failed, res.Attempted)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: metrics\n%v\nwant\n%v", args, got, want)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"--workload", "nope"}, &stdout, &stderr); rc == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", rc, stdout.String())
	}
}
