// Package costmodel encodes the closed-form alpha-beta communication cost
// models of Section 7 of "Write-Avoiding Algorithms" (Carson et al., 2015):
// every row of Table 1 (parallel matmul when the data fits in DRAM) and
// Table 2 (when it only fits in NVM), the dominant-cost equations (2) and
// (3), the 2.5DMML2 / 2.5DMML3 decision ratio, and the LU cost summaries of
// Section 7.2.
//
// Conventions: n-by-n matrices on P processors; per-processor memory sizes
// M1 (cache) and M2 (DRAM) in words; costs are seconds given the hardware
// coefficients. NA entries of the paper's tables are math.NaN().
package costmodel

import (
	"math"

	"writeavoid/internal/machine"
)

// HW holds the hardware cost coefficients: alpha = seconds/message, beta =
// seconds/word, for the network and each local interface, split by
// direction (the 23 direction — writing NVM — is the expensive one).
type HW struct {
	AlphaNW, BetaNW float64 // interprocessor
	Alpha12, Beta12 float64 // L1 -> L2 (writes into DRAM from cache)
	Alpha21, Beta21 float64 // L2 -> L1 (reads from DRAM into cache)
	Alpha23, Beta23 float64 // L2 -> L3 (NVM writes)
	Alpha32, Beta32 float64 // L3 -> L2 (NVM reads)
	M1, M2          float64 // local memory sizes in words
}

// DRAMOnly is a symmetric baseline: network 100x slower than DRAM, NVM
// coefficients equal to DRAM (i.e. no asymmetry).
func DRAMOnly() HW {
	return HW{
		AlphaNW: 1e-6, BetaNW: 1e-9,
		Alpha12: 1e-8, Beta12: 1e-11,
		Alpha21: 1e-8, Beta21: 1e-11,
		Alpha23: 1e-8, Beta23: 1e-11,
		Alpha32: 1e-8, Beta32: 1e-11,
		M1: 1 << 15, M2: 1 << 24,
	}
}

// NVMBacked models a machine whose L3 is nonvolatile with writes
// writePenalty times slower than reads.
func NVMBacked(writePenalty float64) HW {
	hw := DRAMOnly()
	hw.Alpha32 = 4e-8
	hw.Beta32 = 4e-11
	hw.Alpha23 = 4e-8 * writePenalty
	hw.Beta23 = 4e-11 * writePenalty
	return hw
}

// CostModel returns hw's two local interfaces as a machine.CostModel, so a
// machine.CostRecorder attached to a hierarchy charges its exact event
// stream: interface 0 (L1<->L2) loads at Alpha21/Beta21 and stores at
// Alpha12/Beta12, interface 1 (L2<->L3) loads at Alpha32/Beta32 and stores
// at Alpha23/Beta23, the NVM write penalty. Flops are free (HW carries no
// compute rate); network traffic is metered by dist.NetCounters, not here.
func (hw HW) CostModel() machine.CostModel {
	return machine.CostModel{Iface: []machine.CostParams{
		{AlphaLoad: hw.Alpha21, BetaLoad: hw.Beta21, AlphaStore: hw.Alpha12, BetaStore: hw.Beta12},
		{AlphaLoad: hw.Alpha32, BetaLoad: hw.Beta32, AlphaStore: hw.Alpha23, BetaStore: hw.Beta23},
	}}
}

// NA marks an empty table cell.
var NA = math.NaN()

// Row is one line of Table 1 or Table 2: the data-movement class, the
// hardware parameter it multiplies, and the per-algorithm cost contribution
// in seconds (already including the common factor and hardware parameter).
type Row struct {
	Movement string
	Param    string
	Costs    []float64 // one per algorithm column
}

// lg is log2 clamped below at 0 (the paper's log2(c) terms vanish at c=1).
func lg(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// Table1 evaluates every row of the paper's Table 1 for the three
// algorithms 2DMML2, 2.5DMML2 (replication c2) and 2.5DMML3 (replication
// c3). Columns of each Row follow that order.
func Table1(hw HW, n, p int, c2, c3 float64) []Row {
	N := float64(n)
	P := float64(p)
	n3P := N * N * N / P
	n2sP := N * N / math.Sqrt(P)
	sqP := math.Sqrt(P)

	alphaNWfac := func(c float64, l3 bool) float64 {
		switch {
		case c == 1:
			return 1
		case !l3:
			return 1/math.Pow(c, 1.5) + (c+lg(c))/sqP
		default:
			return 1/(math.Sqrt(c3)*c2) + c3*(1+lg(c3)/c2)/sqP
		}
	}
	betaNWfac := func(c float64, l3 bool) float64 {
		switch {
		case c == 1:
			return 1
		case !l3:
			return 1/math.Sqrt(c) + 2*c*(1+lg(c))/sqP
		default:
			return 1/math.Sqrt(c3) + 2*c3*(1+lg(c3))/sqP
		}
	}

	rows := []Row{
		{"L2->L1", "a21/M1^1.5", scale(hw.Alpha21/math.Pow(hw.M1, 1.5)*n3P, 1, 1, 1)},
		{"L2->L1", "b21/M1^0.5", scale(hw.Beta21/math.Sqrt(hw.M1)*n3P, 1, 1, 1)},
		{"L1->L2", "a12/M1", scale(hw.Alpha12/hw.M1*n2sP, 1, 1/math.Sqrt(c2), NA)},
		{"L1->L2", "b12", scale(hw.Beta12*n2sP, 1, 1/math.Sqrt(c2), NA)},
		{"L1->L2", "a12/(M2^0.5*M1)", scale(hw.Alpha12/(math.Sqrt(hw.M2)*hw.M1)*n3P, NA, NA, 1)},
		{"L1->L2", "b12/M2^0.5", scale(hw.Beta12/math.Sqrt(hw.M2)*n3P, NA, NA, 1)},
		{"network", "aNW", scale(hw.AlphaNW*2*sqP,
			alphaNWfac(1, false), alphaNWfac(c2, false), alphaNWfac(c3, true))},
		{"network", "bNW", scale(hw.BetaNW*2*n2sP,
			betaNWfac(1, false), betaNWfac(c2, false), betaNWfac(c3, true))},
		{"L3->L2", "a32", scale(hw.Alpha32*2*sqP, NA, NA, alphaNWfac(c3, true)-c3/sqP)},
		{"L3->L2", "b32", scale(hw.Beta32*2*n2sP, NA, NA, betaNWfac(c3, true)-2*c3/sqP)},
		{"L3->L2", "a32/M2^1.5", scale(hw.Alpha32/math.Pow(hw.M2, 1.5)*n3P, NA, NA, 1)},
		{"L3->L2", "b32/M2^0.5", scale(hw.Beta32/math.Sqrt(hw.M2)*n3P, NA, NA, 1)},
		{"L2->L3", "a23", scale(hw.Alpha23*2*sqP, NA, NA, alphaNWfac(c3, true))},
		{"L2->L3", "b23", scale(hw.Beta23*2*n2sP, NA, NA, betaNWfac(c3, true)+0.5/math.Sqrt(c3))},
		{"L2->L3", "a23/M2", scale(hw.Alpha23/hw.M2*n2sP, NA, NA, 1/math.Sqrt(c3))},
	}
	return rows
}

// scale multiplies the shared prefactor into each algorithm's factor,
// keeping NaN cells NaN.
func scale(prefactor float64, factors ...float64) []float64 {
	out := make([]float64, len(factors))
	for i, f := range factors {
		if math.IsNaN(f) {
			out[i] = NA
		} else {
			out[i] = prefactor * f
		}
	}
	return out
}

// Totals sums each algorithm column of a table, skipping NA cells.
func Totals(rows []Row) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0].Costs))
	for _, r := range rows {
		for i, v := range r.Costs {
			if !math.IsNaN(v) {
				out[i] += v
			}
		}
	}
	return out
}

// DomBeta25DMML2 is the paper's dominant bandwidth cost of 2.5DMML2:
// 2n^2/sqrt(P*c2) * betaNW.
func DomBeta25DMML2(hw HW, n, p int, c2 float64) float64 {
	return 2 * float64(n) * float64(n) / math.Sqrt(float64(p)*c2) * hw.BetaNW
}

// DomBeta25DMML3 is the dominant bandwidth cost of 2.5DMML3:
// 2n^2/sqrt(P*c3) * (betaNW + 1.5*beta23 + beta32).
func DomBeta25DMML3(hw HW, n, p int, c3 float64) float64 {
	return 2 * float64(n) * float64(n) / math.Sqrt(float64(p)*c3) *
		(hw.BetaNW + 1.5*hw.Beta23 + hw.Beta32)
}

// Model21Ratio is domBcost(2.5DMML2)/domBcost(2.5DMML3) =
// sqrt(c3/c2) * betaNW/(betaNW+1.5*beta23+beta32). A ratio above 1 predicts
// that exploiting NVM for extra replication wins.
func Model21Ratio(hw HW, c2, c3 float64) float64 {
	return math.Sqrt(c3/c2) * hw.BetaNW / (hw.BetaNW + 1.5*hw.Beta23 + hw.Beta32)
}

// DomBeta25DooL2 is Eq. (2): the dominant bandwidth cost of 2.5DMML3ooL2.
func DomBeta25DooL2(hw HW, n, p int, c3 float64) float64 {
	N, P := float64(n), float64(p)
	return hw.BetaNW*N*N/math.Sqrt(P*c3) +
		hw.Beta23*N*N/math.Sqrt(P*c3) +
		hw.Beta32*N*N*N/(P*math.Sqrt(hw.M2))
}

// DomBetaSUMMAooL2 is Eq. (3): the dominant bandwidth cost of SUMMAL3ooL2.
func DomBetaSUMMAooL2(hw HW, n, p int) float64 {
	N, P := float64(n), float64(p)
	return hw.BetaNW*N*N*N/(P*math.Sqrt(hw.M2)) +
		hw.Beta23*N*N/P +
		hw.Beta32*N*N*N/(P*math.Sqrt(hw.M2))
}

// Table2 evaluates the rows of the paper's Table 2 for 2.5DMML3ooL2 and
// SUMMAL3ooL2 (columns in that order).
func Table2(hw HW, n, p int, c3 float64) []Row {
	N, P := float64(n), float64(p)
	n3P := N * N * N / P
	n2sP := N * N / math.Sqrt(P)
	n2P := N * N / P
	sqP := math.Sqrt(P)
	ool2 := 1/math.Sqrt(c3) + c3*(1+lg(c3))/sqP
	summaNW := N / math.Sqrt(P*hw.M2)

	return []Row{
		{"L2->L1", "a21/M1^1.5", scale(hw.Alpha21/math.Pow(hw.M1, 1.5)*n3P, 1, 1)},
		{"L2->L1", "b21/M1^0.5", scale(hw.Beta21/math.Sqrt(hw.M1)*n3P, 1, 1)},
		{"L1->L2", "a12/(M2^0.5*M1)", scale(hw.Alpha12/(math.Sqrt(hw.M2)*hw.M1)*n3P, 1, 1)},
		{"L1->L2", "b12/M2^0.5", scale(hw.Beta12/math.Sqrt(hw.M2)*n3P, 1, 1)},
		{"network", "aNW/M2", scale(hw.AlphaNW/hw.M2*n2sP, ool2, summaNW*math.Log2(P))},
		{"network", "bNW", scale(hw.BetaNW*n2sP, ool2, summaNW)},
		{"L3->L2", "a32/M2", scale(hw.Alpha32/hw.M2*n2sP, summaNW+ool2, summaNW)},
		{"L3->L2", "b32", scale(hw.Beta32*n2sP, summaNW+ool2, summaNW)},
		{"L2->L3", "a23/M2", scale(hw.Alpha23/hw.M2*n2P, math.Sqrt(P/c3)+c3*(1+lg(c3)), 1)},
		{"L2->L3", "b23", scale(hw.Beta23*n2P, math.Sqrt(P/c3)+c3*(1+lg(c3)), 1)},
	}
}

// LUBlockSize returns the paper's block-size choice for the Section 7.2
// algorithms: b = sqrt(M2/3) capped at n/(sqrt(P) log^2 P) so the panel
// flops stay lower-order.
func LUBlockSize(hw HW, n, p int) float64 {
	b := math.Sqrt(hw.M2 / 3)
	l2 := math.Log2(float64(p))
	if cap := float64(n) / (math.Sqrt(float64(p)) * l2 * l2); cap < b && cap >= 1 {
		b = cap
	}
	if b < 1 {
		b = 1
	}
	return b
}

// TimeLLLUNP evaluates the full alpha-beta cost of LL-LUNP, the paper's
// equations (23) and (24): interprocessor latency and bandwidth plus the
// NVM traffic (each block written at most twice, reads tracking the
// communication volume).
func TimeLLLUNP(hw HW, n, p int) float64 {
	N, P := float64(n), float64(p)
	b := LUBlockSize(hw, n, p)
	l2 := math.Log2(P)
	lsq := math.Log2(math.Sqrt(P))
	vol := N * N * N / (P * math.Sqrt(hw.M2)) * l2 * l2
	msgs := N*N*N/(P*math.Pow(hw.M2, 1.5))*l2*l2 + 4*N/b*lsq + 4*N*N*lsq/(hw.M2*math.Sqrt(P))
	t := hw.AlphaNW*msgs + hw.BetaNW*(vol+1.5*N*N/math.Sqrt(P))
	t += hw.Beta23 * 2 * N * N / P                // writes: each block <= twice
	t += hw.Beta32 * (vol + 1.5*N*N/math.Sqrt(P)) // reads track comm volume
	t += hw.Alpha32 * msgs                        // NVM read messages
	t += hw.Alpha23 * 2 * N * N / (P * hw.M2)     // NVM write messages
	return t
}

// TimeRLLUNP evaluates the full alpha-beta cost of RL-LUNP, the paper's
// equations (25) and (26).
func TimeRLLUNP(hw HW, n, p int) float64 {
	N, P := float64(n), float64(p)
	l2 := math.Log2(P)
	lsq := math.Log2(math.Sqrt(P))
	t := hw.AlphaNW*(N*N/(math.Sqrt(P)*hw.M2))*lsq + hw.BetaNW*(N*N/math.Sqrt(P))*lsq
	t += hw.Beta23 * (N * N / math.Sqrt(P)) * l2 * l2
	t += hw.Beta32 * N * N * N / (P * math.Sqrt(hw.M2))
	t += hw.Alpha32 * N * N * N / (P * math.Pow(hw.M2, 1.5))
	t += hw.Alpha23 * (N * N / (math.Sqrt(P) * hw.M2)) * l2 * l2
	return t
}

// DomBetaLLLUNP is the Section 7.2 dominant bandwidth cost of left-looking
// parallel LU (write-minimal): O(n^3 log^2 P/(P sqrt(M2))) network and NVM
// reads, O(n^2/P) NVM writes.
func DomBetaLLLUNP(hw HW, n, p int) float64 {
	N, P := float64(n), float64(p)
	l2 := math.Log2(P) * math.Log2(P)
	vol := N * N * N / (P * math.Sqrt(hw.M2)) * l2
	return hw.BetaNW*vol + hw.Beta23*N*N/P + hw.Beta32*vol
}

// DomBetaRLLUNP is the dominant bandwidth cost of right-looking parallel LU
// (network-minimal): O(n^2 log P/sqrt(P)) network, O(n^2 log^2 P/sqrt(P))
// NVM writes, O(n^3/(P sqrt(M2))) NVM reads.
func DomBetaRLLUNP(hw HW, n, p int) float64 {
	N, P := float64(n), float64(p)
	return hw.BetaNW*N*N/math.Sqrt(P)*math.Log2(math.Sqrt(P)) +
		hw.Beta23*N*N/math.Sqrt(P)*math.Log2(P)*math.Log2(P) +
		hw.Beta32*N*N*N/(P*math.Sqrt(hw.M2))
}
