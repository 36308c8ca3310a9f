package costmodel

import (
	"math"
	"testing"

	"writeavoid/internal/machine"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1(DRAMOnly(), 4096, 64, 2, 4)
	if len(rows) != 15 {
		t.Fatalf("Table 1 has 15 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Costs) != 3 {
			t.Fatalf("row %q/%q: want 3 algorithm columns", r.Movement, r.Param)
		}
	}
	// The 2D and 2.5DMML2 columns must have NA exactly where the paper
	// does: the L3 rows and the M2-prefixed L1->L2 rows.
	naCount2D, naCountL3 := 0, 0
	for _, r := range rows {
		if math.IsNaN(r.Costs[0]) {
			naCount2D++
		}
		if math.IsNaN(r.Costs[2]) {
			naCountL3++
		}
	}
	if naCount2D != 9 { // rows 5,6,9..15
		t.Errorf("2D column has %d NA cells, want 9", naCount2D)
	}
	if naCountL3 != 2 { // rows 3,4
		t.Errorf("2.5DMML3 column has %d NA cells, want 2", naCountL3)
	}
}

func TestTable1L2L1IdenticalAcrossAlgorithms(t *testing.T) {
	rows := Table1(DRAMOnly(), 4096, 64, 2, 4)
	for _, r := range rows[:2] { // the two L2->L1 rows
		if r.Costs[0] != r.Costs[1] || r.Costs[1] != r.Costs[2] {
			t.Fatalf("L2->L1 costs must be identical: %v", r.Costs)
		}
	}
}

func TestReplicationLowersNetworkBeta(t *testing.T) {
	// The paper expects the leading 1/sqrt(c) terms to dominate when
	// c << sqrt(P), so use a large machine.
	rows := Table1(DRAMOnly(), 1<<14, 1<<20, 4, 8)
	var bnw Row
	for _, r := range rows {
		if r.Param == "bNW" {
			bnw = r
		}
	}
	if !(bnw.Costs[1] < bnw.Costs[0]) {
		t.Errorf("2.5DMML2 network beta %g should be below 2D's %g", bnw.Costs[1], bnw.Costs[0])
	}
	if !(bnw.Costs[2] < bnw.Costs[1]) {
		t.Errorf("2.5DMML3 network beta %g should be below 2.5DMML2's %g", bnw.Costs[2], bnw.Costs[1])
	}
}

func TestTotalsSkipNA(t *testing.T) {
	rows := []Row{
		{"x", "p", []float64{1, NA}},
		{"y", "q", []float64{2, 3}},
	}
	tot := Totals(rows)
	if tot[0] != 3 || tot[1] != 3 {
		t.Fatalf("totals %v", tot)
	}
}

func TestDomBetaRatioFormula(t *testing.T) {
	hw := DRAMOnly()
	n, p := 8192, 512
	c2, c3 := 2.0, 8.0
	ratio := DomBeta25DMML2(hw, n, p, c2) / DomBeta25DMML3(hw, n, p, c3)
	if math.Abs(ratio-Model21Ratio(hw, c2, c3)) > 1e-12 {
		t.Fatalf("ratio %g vs closed form %g", ratio, Model21Ratio(hw, c2, c3))
	}
}

// The paper's Model 2.1 decision: with symmetric (cheap) NVM the extra
// replication wins; with a large enough write penalty it loses.
func TestModel21Decision(t *testing.T) {
	c2, c3 := 2.0, 8.0
	if Model21Ratio(DRAMOnly(), c2, c3) <= 1 {
		t.Error("cheap NVM should favor 2.5DMML3")
	}
	// Make NVM traffic dominate: beta23/beta32 huge relative to betaNW.
	hw := DRAMOnly()
	hw.Beta23 = hw.BetaNW * 100
	hw.Beta32 = hw.BetaNW * 10
	if Model21Ratio(hw, c2, c3) >= 1 {
		t.Error("expensive NVM writes should favor 2.5DMML2")
	}
}

// Model 2.2 decision: 2.5DMML3ooL2 wins when the network is the bottleneck;
// SUMMAL3ooL2 wins when NVM writes are expensive and M2 is large enough
// that its extra network traffic stays moderate... with a small network cost.
func TestModel22Decision(t *testing.T) {
	n, p := 1<<15, 1<<6
	c3 := 4.0

	slowNet := DRAMOnly()
	slowNet.BetaNW *= 1000
	if DomBeta25DooL2(slowNet, n, p, c3) >= DomBetaSUMMAooL2(slowNet, n, p) {
		t.Error("slow network should favor 2.5DMML3ooL2")
	}

	dearWrites := DRAMOnly()
	dearWrites.BetaNW /= 100
	dearWrites.Beta23 *= 5000
	if DomBetaSUMMAooL2(dearWrites, n, p) >= DomBeta25DooL2(dearWrites, n, p, c3) {
		t.Error("expensive NVM writes with a fast network should favor SUMMAL3ooL2")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(DRAMOnly(), 1<<14, 256, 4)
	if len(rows) != 10 {
		t.Fatalf("Table 2 has 10 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Costs) != 2 {
			t.Fatal("two algorithm columns")
		}
		if math.IsNaN(r.Costs[0]) || math.IsNaN(r.Costs[1]) {
			t.Fatalf("Table 2 has no NA cells, row %q/%q = %v", r.Movement, r.Param, r.Costs)
		}
	}
}

func TestTable2Contrasts(t *testing.T) {
	hw := DRAMOnly()
	// Model 2.2 regime: n^2/P >> M2 (the data only fits in NVM).
	n, p := 1<<20, 256
	rows := Table2(hw, n, p, 4.0)
	get := func(param string) Row {
		for _, r := range rows {
			if r.Param == param {
				return r
			}
		}
		t.Fatalf("row %q missing", param)
		return Row{}
	}
	// SUMMA pays more network words, ooL2 pays more NVM writes.
	if bnw := get("bNW"); bnw.Costs[1] <= bnw.Costs[0] {
		t.Errorf("SUMMA network beta %g should exceed ooL2's %g", bnw.Costs[1], bnw.Costs[0])
	}
	if b23 := get("b23"); b23.Costs[0] <= b23.Costs[1] {
		t.Errorf("ooL2 NVM-write beta %g should exceed SUMMA's %g", b23.Costs[0], b23.Costs[1])
	}
}

// LU mirrors the matmul trade-off (Section 7.2): LL minimizes NVM writes,
// RL minimizes network.
func TestLUCostMirrorsMatmul(t *testing.T) {
	n, p := 1<<15, 256

	dearWrites := NVMBacked(10000)
	dearWrites.BetaNW = 1e-12 // nearly free network
	if DomBetaLLLUNP(dearWrites, n, p) >= DomBetaRLLUNP(dearWrites, n, p) {
		t.Error("expensive NVM writes should favor LL-LUNP")
	}

	slowNet := DRAMOnly()
	slowNet.BetaNW *= 1e5
	if DomBetaRLLUNP(slowNet, n, p) >= DomBetaLLLUNP(slowNet, n, p) {
		t.Error("slow network should favor RL-LUNP")
	}
}

func TestFullLUTimesConsistentWithDomBeta(t *testing.T) {
	hw := NVMBacked(8)
	n, p := 1<<15, 256
	// With latencies zeroed, the full models reduce to the dominant beta
	// terms within a small constant (they add only lower-order terms).
	hw.AlphaNW, hw.Alpha23, hw.Alpha32 = 0, 0, 0
	for _, tc := range []struct{ full, dom float64 }{
		{TimeLLLUNP(hw, n, p), DomBetaLLLUNP(hw, n, p)},
		{TimeRLLUNP(hw, n, p), DomBetaRLLUNP(hw, n, p)},
	} {
		if tc.full < tc.dom || tc.full > 3*tc.dom {
			t.Fatalf("full %g not within [1,3]x dom %g", tc.full, tc.dom)
		}
	}
	// The LL/RL winner flips with the write penalty, as in the dom model.
	cheap := DRAMOnly()
	cheap.AlphaNW, cheap.Alpha23, cheap.Alpha32 = 0, 0, 0
	dear := NVMBacked(100000)
	dear.AlphaNW, dear.Alpha23, dear.Alpha32 = 0, 0, 0
	dear.BetaNW = 1e-13
	if TimeLLLUNP(dear, n, p) >= TimeRLLUNP(dear, n, p) {
		t.Error("very expensive NVM writes should favor LL")
	}
	slow := DRAMOnly()
	slow.BetaNW *= 1e5
	slow.AlphaNW, slow.Alpha23, slow.Alpha32 = 0, 0, 0
	if TimeRLLUNP(slow, n, p) >= TimeLLLUNP(slow, n, p) {
		t.Error("slow network should favor RL")
	}
}

func TestLUBlockSize(t *testing.T) {
	hw := DRAMOnly()
	b := LUBlockSize(hw, 1<<20, 4)
	if b != math.Sqrt(hw.M2/3) {
		t.Fatalf("huge n should use the memory-bound block, got %g", b)
	}
	b2 := LUBlockSize(hw, 1<<15, 1<<10)
	if b2 >= b || b2 < 1 {
		t.Fatalf("small n / big P should cap the block: %g", b2)
	}
	// Degenerate cap below one row falls back to the memory-bound block.
	if LUBlockSize(hw, 1<<10, 1<<10) != b {
		t.Fatal("sub-row cap should be ignored")
	}
}

func TestNVMBackedAsymmetry(t *testing.T) {
	hw := NVMBacked(8)
	if hw.Beta23 != 8*hw.Beta32 {
		t.Fatalf("write penalty not applied: b23=%g b32=%g", hw.Beta23, hw.Beta32)
	}
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b))
}

// A machine.CostRecorder priced with HW.CostModel charges each event with the
// directional HW coefficients: reads at alpha21/alpha32, writes at
// alpha12/alpha23, flops free.
func TestHWCostModelChargesDirectionalCoefficients(t *testing.T) {
	hw := NVMBacked(8)
	rec := machine.NewCostRecorder(hw.CostModel())
	h := machine.New(false,
		machine.Level{Name: "L1"},
		machine.Level{Name: "L2"},
		machine.Level{Name: "L3"},
	)
	h.Attach(rec)

	h.Load(1, 1000) // NVM read
	h.Store(1, 500) // NVM write: the expensive direction
	// With an 8x write penalty the NVM write of half the words must cost
	// more than the NVM read.
	if rec.StoreTime() <= rec.LoadTime() {
		t.Fatalf("NVM write %g should exceed NVM read %g under penalty",
			rec.StoreTime(), rec.LoadTime())
	}

	h.Load(0, 300)
	h.Store(0, 200)
	h.Flops(1 << 20)
	loads := hw.Alpha32 + hw.Beta32*1000 + hw.Alpha21 + hw.Beta21*300
	stores := hw.Alpha23 + hw.Beta23*500 + hw.Alpha12 + hw.Beta12*200
	if got := rec.LoadTime(); !almostEq(got, loads) {
		t.Fatalf("LoadTime() = %g want %g", got, loads)
	}
	if got := rec.StoreTime(); !almostEq(got, stores) {
		t.Fatalf("StoreTime() = %g want %g", got, stores)
	}
	if got := rec.Time(); !almostEq(got, loads+stores) {
		t.Fatalf("Time() = %g want %g", got, loads+stores)
	}

	rec.Reset()
	if rec.Time() != 0 {
		t.Fatalf("Reset left time %g", rec.Time())
	}
}

// The cost model's ω is the NVM write/read asymmetry of the Section 7
// coefficients: NVMBacked(p) built its Beta23 as p times Beta32.
func TestHWCostModelOmega(t *testing.T) {
	if got := NVMBacked(8).CostModel().Omega(); got != 8 {
		t.Fatalf("NVMBacked(8) ω = %g want 8", got)
	}
	if got := DRAMOnly().CostModel().Omega(); got != 1 {
		t.Fatalf("DRAMOnly ω = %g want 1", got)
	}
}

func TestLgClamp(t *testing.T) {
	if lg(0.5) != 0 || lg(1) != 0 || lg(8) != 3 {
		t.Fatal("lg")
	}
}
