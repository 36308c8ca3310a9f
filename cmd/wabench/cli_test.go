package main

import (
	"io"
	"log/slog"
	"testing"

	"writeavoid/internal/costmodel"
	"writeavoid/internal/experiments"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
)

// Contradictory flag combinations are rejected up front with usage exit
// code 2 — never a run with interleaved stdout dialects.
func TestRunRejectsContradictoryFlags(t *testing.T) {
	cases := [][]string{
		{"-check", "bogus"},
		{"-stream", "-", "-trace", "-"},
		{"-json", "-stream", "-"},
		{"-json", "-trace", "-"},
		{"-benchjson", "-", "-stream", "-"},
		{"-benchjson", "out.json", "-json"},
		{"-benchjson", "out.json", "sec2"},
		{"-hw", "weird"},
	}
	for _, args := range cases {
		if rc := run(args); rc != 2 {
			t.Errorf("run(%v) = %d, want 2", args, rc)
		}
	}
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// The strict verdict: a monitor that recorded a violation exits nonzero
// under -check strict, zero under warn and off.
func TestConformanceVerdictExitCodes(t *testing.T) {
	mk := func(floor int64) *monitor.Monitor {
		reg := monitor.NewRegistry()
		reg.Register(monitor.OutputFloor("p", floor))
		mon := monitor.New(machine.GenericLevels(2), reg)
		mon.Phase("p")
		mon.RecordBatch([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: 100}})
		mon.RecordBatch([]machine.Event{{Kind: machine.EvStore, Arg: 0, Words: 50}})
		return mon
	}
	if rc := conformanceVerdict(mk(1<<40), "strict", testLogger()); rc != 1 {
		t.Fatalf("strict verdict on violation = %d, want 1", rc)
	}
	if rc := conformanceVerdict(mk(1<<40), "warn", testLogger()); rc != 0 {
		t.Fatalf("warn verdict on violation = %d, want 0", rc)
	}
	if rc := conformanceVerdict(mk(1<<40), "off", testLogger()); rc != 0 {
		t.Fatalf("off verdict on violation = %d, want 0", rc)
	}
	if rc := conformanceVerdict(mk(10), "strict", testLogger()); rc != 0 {
		t.Fatalf("strict verdict on clean run = %d, want 0", rc)
	}
	if rc := conformanceVerdict(nil, "strict", testLogger()); rc != 0 {
		t.Fatalf("strict verdict with no monitor = %d, want 0", rc)
	}
}

// The -json phase suite satisfies its own registered bounds: the strict
// gate over buildJSONReport stays green, and all four phases are checked.
func TestJSONSuiteConformsStrictly(t *testing.T) {
	mon := monitor.New(machine.GenericLevels(3), jsonSuiteChecks())
	sess := experiments.NewSession()
	sess.SetMonitor(mon)
	buildJSONReport(sess, true, "nvm", costmodel.NVMBacked(8))
	if rc := conformanceVerdict(mon, "strict", testLogger()); rc != 0 {
		t.Fatalf("json suite violates its own bounds: %v", mon.Violations())
	}
	if mon.Phases() != 4 {
		t.Fatalf("phases checked = %d, want 4", mon.Phases())
	}
	if mon.TotalEvents() == 0 {
		t.Fatal("monitor saw no events")
	}
}
