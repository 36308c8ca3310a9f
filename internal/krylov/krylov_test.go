package krylov

import (
	"math"
	"math/rand/v2"
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

func randVec(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+3))
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

func TestRingCSRSymmetricDominant(t *testing.T) {
	r := NewRing(32, 2)
	m := r.CSR()
	if m.NNZ() != 32*5 {
		t.Fatalf("nnz %d want %d", m.NNZ(), 32*5)
	}
	// Symmetry: A = A^T via explicit check.
	dense := make([][]float64, m.N)
	for i := range dense {
		dense[i] = make([]float64, m.N)
	}
	for i := 0; i < m.N; i++ {
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			dense[i][m.Col[idx]] += m.Val[idx]
		}
	}
	for i := range dense {
		rowSum := 0.0
		for j := range dense {
			if dense[i][j] != dense[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if i != j {
				rowSum += math.Abs(dense[i][j])
			}
		}
		if dense[i][i] <= rowSum {
			t.Fatalf("row %d not strictly dominant", i)
		}
	}
}

func TestRingApplyMatchesCSR(t *testing.T) {
	r := NewRing(24, 2)
	m := r.CSR()
	x := randVec(24, 1)
	want := make([]float64, 24)
	m.MulVec(want, x)

	// Apply on the full ring with explicit ghosts.
	src := make([]float64, 24+2*r.B)
	r.Gather(src, x, -r.B)
	got := make([]float64, 24)
	r.Apply(got, src)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-13 {
			t.Fatalf("element %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestMesh2DShape(t *testing.T) {
	m := Mesh2D(5, 1)
	if m.N != 25 || m.NNZ() != 25*9 {
		t.Fatalf("bad mesh: n=%d nnz=%d", m.N, m.NNZ())
	}
}

func TestCGSolvesRing(t *testing.T) {
	r := NewRing(128, 2)
	a := r.CSR()
	b := randVec(128, 2)
	var tr Traffic
	res := CG(a, b, make([]float64, 128), 200, 1e-10, &tr)
	if res.Residual > 1e-8 {
		t.Fatalf("CG residual %g", res.Residual)
	}
	if res.Iters == 0 || res.Iters == 200 {
		t.Fatalf("unexpected iteration count %d", res.Iters)
	}
}

func TestCGSolvesMesh2D(t *testing.T) {
	a := Mesh2D(12, 1)
	b := randVec(a.N, 3)
	var tr Traffic
	res := CG(a, b, make([]float64, a.N), 400, 1e-10, &tr)
	if res.Residual > 1e-8 {
		t.Fatalf("residual %g", res.Residual)
	}
}

func TestCGWriteVolume(t *testing.T) {
	n := 256
	r := NewRing(n, 1)
	b := randVec(n, 4)
	var tr Traffic
	res := CG(r.CSR(), b, make([]float64, n), 50, 0, &tr)
	if res.Iters != 50 {
		t.Fatalf("want full 50 iterations, got %d", res.Iters)
	}
	// ~4n writes per iteration plus setup.
	want := int64(4 * n * 50)
	if tr.Writes < want || tr.Writes > want+int64(10*n) {
		t.Fatalf("W12 = %d, want ~%d", tr.Writes, want)
	}
}

// CA-CG (both modes) reproduces CG's iterates in exact arithmetic; check the
// solutions agree to high precision for moderate s.
func TestCACGMatchesCG(t *testing.T) {
	n := 96
	ring := NewRing(n, 2)
	b := randVec(n, 5)
	x0 := make([]float64, n)

	for _, s := range []int{1, 2, 4} {
		for _, mode := range []CACGMode{CACGStored, CACGStreaming} {
			outers := 12 / s
			var trCG, trCA Traffic
			ref := CG(ring.CSR(), b, x0, s*outers, 0, &trCG)
			got, err := CACG(ring, b, x0, outers, CACGConfig{S: s, Mode: mode, Block: 16}, &trCA)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iters != s*outers {
				t.Fatalf("s=%d mode=%d: iters %d want %d", s, mode, got.Iters, s*outers)
			}
			var maxd float64
			for i := range ref.X {
				if d := math.Abs(ref.X[i] - got.X[i]); d > maxd {
					maxd = d
				}
			}
			if maxd > 1e-7 {
				t.Fatalf("s=%d mode=%d: iterates diverge from CG by %g", s, mode, maxd)
			}
		}
	}
}

// The two CA-CG modes compute the same arithmetic in a different traffic
// pattern: their results must agree to roundoff.
func TestStreamingEquivalentToStored(t *testing.T) {
	n := 128
	ring := NewRing(n, 1)
	b := randVec(n, 6)
	var t1, t2 Traffic
	r1, err := CACG(ring, b, make([]float64, n), 4, CACGConfig{S: 4, Mode: CACGStored}, &t1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CACG(ring, b, make([]float64, n), 4, CACGConfig{S: 4, Mode: CACGStreaming, Block: 32}, &t2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.X {
		if math.Abs(r1.X[i]-r2.X[i]) > 1e-10 {
			t.Fatalf("modes diverge at %d: %g vs %g", i, r1.X[i], r2.X[i])
		}
	}
}

// The paper's Section 8 claim, measured: streaming CA-CG reduces W12 by
// Theta(s) versus CG, while the stored variant does not; and the streaming
// variant's flops stay within ~2x of the stored variant's.
func TestStreamingWriteReduction(t *testing.T) {
	n := 4096
	ring := NewRing(n, 1)
	b := randVec(n, 7)
	x0 := make([]float64, n)
	totalIters := 32

	var trCG Traffic
	CG(ring.CSR(), b, x0, totalIters, 0, &trCG)

	for _, s := range []int{2, 4, 8} {
		var trStored, trStream Traffic
		if _, err := CACG(ring, b, x0, totalIters/s, CACGConfig{S: s, Mode: CACGStored}, &trStored); err != nil {
			t.Fatal(err)
		}
		if _, err := CACG(ring, b, x0, totalIters/s, CACGConfig{S: s, Mode: CACGStreaming, Block: 256}, &trStream); err != nil {
			t.Fatal(err)
		}
		ratio := float64(trCG.Writes) / float64(trStream.Writes)
		if ratio < float64(s)/2 {
			t.Errorf("s=%d: write reduction only %.2fx (CG %d vs streaming %d)",
				s, ratio, trCG.Writes, trStream.Writes)
		}
		// Stored CA-CG must NOT show the Theta(s) reduction.
		if storedRatio := float64(trCG.Writes) / float64(trStored.Writes); storedRatio > 2 {
			t.Errorf("s=%d: stored CA-CG unexpectedly write-avoiding (%.2fx)", s, storedRatio)
		}
		// Reads grow by at most ~2x stored (the recomputation price).
		if trStream.Reads > 3*trStored.Reads {
			t.Errorf("s=%d: streaming reads %d blow past 3x stored %d", s, trStream.Reads, trStored.Reads)
		}
	}
}

// The Newton basis keeps CA-CG faithful to CG at s values where the
// monomial basis has long lost accuracy.
func TestNewtonBasisStableAtLargeS(t *testing.T) {
	n := 512
	ring := NewRing(n, 1)
	b := randVec(n, 9)
	x0 := make([]float64, n)
	iters := 32

	var trCG Traffic
	ref := CG(ring.CSR(), b, x0, iters, 0, &trCG)

	for _, s := range []int{8, 16} {
		var tr Traffic
		got, err := CACG(ring, b, x0, iters/s,
			CACGConfig{S: s, Mode: CACGStreaming, Basis: BasisNewton, Block: 64}, &tr)
		if err != nil {
			t.Fatal(err)
		}
		var maxd float64
		for i := range ref.X {
			if d := math.Abs(ref.X[i] - got.X[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-6 {
			t.Fatalf("s=%d Newton basis diverges from CG by %g", s, maxd)
		}
		if ratio := float64(trCG.Writes) / float64(tr.Writes); ratio < float64(s)/2 {
			t.Fatalf("s=%d write reduction only %.2f", s, ratio)
		}
	}
}

func TestLejaShiftsCoverSpectrum(t *testing.T) {
	lo, hi := 2.0, 4.0
	shifts := lejaShifts(lo, hi, 8)
	if len(shifts) != 8 {
		t.Fatal("count")
	}
	seen := map[float64]bool{}
	for _, v := range shifts {
		if v < lo || v > hi {
			t.Fatalf("shift %g outside [%g,%g]", v, lo, hi)
		}
		if seen[v] {
			t.Fatalf("duplicate shift %g", v)
		}
		seen[v] = true
	}
	// Leja ordering starts at an extreme point.
	if math.Abs(shifts[0]-3) < 0.9 {
		t.Fatalf("first Leja point %g should be near an interval end", shifts[0])
	}
}

func TestCACGValidation(t *testing.T) {
	ring := NewRing(32, 1)
	b := randVec(32, 8)
	var tr Traffic
	if _, err := CACG(ring, b, make([]float64, 32), 1, CACGConfig{S: 0}, &tr); err == nil {
		t.Fatal("want s>=1 error")
	}
	if _, err := CACG(ring, b, make([]float64, 32), 1, CACGConfig{S: 2, Mode: CACGMode(99)}, &tr); err == nil {
		t.Fatal("want unknown-mode error")
	}
}

func TestTrafficHelpers(t *testing.T) {
	var tr Traffic
	x := []float64{1, 2}
	y := []float64{3, 4}
	if Dot(&tr, x, y) != 11 {
		t.Fatal("dot")
	}
	Axpy(&tr, 2, x, y)
	if y[0] != 5 || y[1] != 8 {
		t.Fatalf("axpy %v", y)
	}
	XpbyInto(&tr, x, 0.5, y)
	if y[0] != 3.5 || y[1] != 6 {
		t.Fatalf("xpby %v", y)
	}
	if tr.Writes != 4 || tr.Reads != 2*2+4+4 {
		t.Fatalf("traffic %+v", tr)
	}
	if Norm2(&tr, []float64{3, 4}) != 5 {
		t.Fatal("norm")
	}
}

func TestGatherPeriodic(t *testing.T) {
	r := NewRing(8, 1)
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	dst := make([]float64, 4)
	r.Gather(dst, x, -2)
	want := []float64{6, 7, 0, 1}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("gather %v want %v", dst, want)
		}
	}
}

// Charging a Traffic meter with a span recorder attached allocates nothing:
// R and W deliver through the meter's batch-of-one buffer, and Begin/End
// cost exactly what the recorder's own span bookkeeping costs.
func TestTrafficRecorderChargesAllocateNothing(t *testing.T) {
	rec := profile.NewSpanRecorder(machine.GenericLevels(2))
	tr := &Traffic{Rec: rec}
	if avg := testing.AllocsPerRun(100, func() { tr.R(8); tr.W(4) }); avg != 0 {
		t.Fatalf("R+W allocate %.1f per call pair, want 0", avg)
	}
	meter := testing.AllocsPerRun(100, func() { tr.Begin("phase"); tr.End() })
	direct := testing.AllocsPerRun(100, func() { rec.Begin("phase"); rec.End() })
	if meter != direct {
		t.Fatalf("Begin+End through the meter allocate %.1f, the recorder alone %.1f", meter, direct)
	}
}
