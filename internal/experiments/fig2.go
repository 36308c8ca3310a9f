// Package experiments regenerates every table and figure of the evaluation
// of "Write-Avoiding Algorithms" (Carson et al., 2015) on the simulated
// substrates, at the scaled-down geometry documented in DESIGN.md (all block
// and cache sizes shrunk by the same linear factor ~14 relative to the
// paper's Xeon 7560, which preserves every claim stated in cache lines
// relative to capacity).
//
// Each experiment returns structured rows; Format* helpers render the
// aligned text that cmd/wabench prints and EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/core"
)

// Scaled Figure 2/5 geometry (see DESIGN.md): the paper's 4000x m x4000
// doubles against a 24 MB L3 with blocks 700-1023 become 256 x n x 256
// against a 128 KiB simulated L3 with blocks 48-72.
const (
	figOuter     = 256        // fixed output dims (paper: 4000)
	figLineBytes = 64         // cache line (same as paper)
	figL3Bytes   = 128 * 1024 // simulated L3 (paper: 24 MB)
	figAssoc     = 16         // ways (Nehalem L3 is 16-way)
	// inner blocking standing in for the paper's "L2: MKL, L1: MKL" /
	// "L2:100, L1:32" levels.
	figL2Block = 16
	figL1Block = 8
)

// figSweep returns the middle-dimension sweep (paper: 128..32K scaled ~1/14
// to 8..2048); quick mode stops at 256 so tests and benches stay fast.
func figSweep(quick bool) []int {
	full := []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	if quick {
		return full[:6]
	}
	return full
}

// Fig2Block3Fit is the scaled analogue of the paper's block 1023 (just under
// the 3-blocks-fit limit sqrt(M/3) = 73.9 for the simulated L3).
var Fig2Blocks = []int{48, 56, 64, 72}

// FigPoint is one x-axis point of a Figure 2 or Figure 5 panel.
type FigPoint struct {
	Mid         int   // middle (contraction) dimension
	VictimsM    int64 // ~ L3_VICTIMS.M, in cache lines (incl. final flush)
	VictimsE    int64 // ~ L3_VICTIMS.E
	FillsE      int64 // ~ LLC_S_FILLS.E
	IdealMisses int64 // Frigo ideal-cache estimate (Fig 2a reference line)
	WriteLB     int64 // the write lower bound: output lines
}

// FigPanel is one plot of Figure 2 or Figure 5.
type FigPanel struct {
	Name   string
	Points []FigPoint
}

// figCache builds the simulated L3. The headline figures run on
// fully-associative LRU: the paper argues (Props 6.1/6.2, Section 6.2) that
// LRU is the right model, and at this scaled-down geometry a 128-set
// associative cache would add conflict-miss variance that the paper's
// 24576-set L3 averages away. The set-associative CLOCK3 configuration used
// by the realism cross-check below is what cache.PolicyClock3 provides.
func figCache() *cache.FALRU {
	return cache.NewFALRU(figL3Bytes, figLineBytes)
}

func runTrace(run func(access.Sink)) (cache.Stats, int64) {
	c := figCache()
	run(c)
	c.FlushDirty()
	st := c.Stats()
	return st, st.VictimsM
}

// Fig2 regenerates all six panels of Figure 2: (a) cache-oblivious order,
// (b) the locality-tuned but write-oblivious order standing in for MKL
// dgemm, (c)-(f) two-level write-avoiding orders with L3 blocks 48/56/64/72
// (the paper's 700/800/900/1023).
func (s *Session) Fig2(quick bool) []FigPanel {
	s.mark("fig2")
	var panels []FigPanel

	co := FigPanel{Name: "fig2a cache-oblivious"}
	for _, mid := range figSweep(quick) {
		tr := core.NewCOMatMulTrace(figOuter, mid, figOuter, figL1Block, figLineBytes)
		st, _ := runTrace(tr.Run)
		co.Points = append(co.Points, point(mid, st, true))
	}
	panels = append(panels, co)

	tuned := FigPanel{Name: "fig2b tuned (MKL stand-in)"}
	for _, mid := range figSweep(quick) {
		tr := core.NewMatMulTrace(figOuter, mid, figOuter, figLineBytes,
			core.TraceLevel{Block: 32, ContractionInner: false},
			core.TraceLevel{Block: figL1Block, ContractionInner: true})
		st, _ := runTrace(tr.Run)
		tuned.Points = append(tuned.Points, point(mid, st, false))
	}
	panels = append(panels, tuned)

	for _, b := range Fig2Blocks {
		p := FigPanel{Name: fmt.Sprintf("fig2 two-level WA L3=%d", b)}
		for _, mid := range figSweep(quick) {
			tr := core.NewMatMulTrace(figOuter, mid, figOuter, figLineBytes,
				core.TraceLevel{Block: b, ContractionInner: true},
				core.TraceLevel{Block: figL2Block, ContractionInner: false},
				core.TraceLevel{Block: figL1Block, ContractionInner: false})
			st, _ := runTrace(tr.Run)
			p.Points = append(p.Points, point(mid, st, false))
		}
		panels = append(panels, p)
	}
	return panels
}

// Fig5 regenerates the two columns of Figure 5 for each L3 block size: the
// left column is the multi-level WA instruction order (Fig. 4a: contraction
// innermost at every level), the right column the two-level WA order
// (Fig. 4b: contraction outermost below the top level).
func (s *Session) Fig5(quick bool) []FigPanel {
	s.mark("fig5")
	var panels []FigPanel
	for _, b := range Fig2Blocks {
		for _, multiLevel := range []bool{true, false} {
			name := fmt.Sprintf("fig5 two-level order L3=%d", b)
			if multiLevel {
				name = fmt.Sprintf("fig5 multi-level order L3=%d", b)
			}
			p := FigPanel{Name: name}
			for _, mid := range figSweep(quick) {
				tr := core.NewMatMulTrace(figOuter, mid, figOuter, figLineBytes,
					core.TraceLevel{Block: b, ContractionInner: true},
					core.TraceLevel{Block: figL2Block, ContractionInner: multiLevel},
					core.TraceLevel{Block: figL1Block, ContractionInner: multiLevel})
				st, _ := runTrace(tr.Run)
				p.Points = append(p.Points, point(mid, st, false))
			}
			panels = append(panels, p)
		}
	}
	return panels
}

// RealCacheCrossCheck reruns one WA and the CO order at a fixed middle
// dimension through the realistic set-associative CLOCK3 configuration (the
// documented Nehalem-EX replacement approximation), verifying that the
// write-avoidance ordering survives a real replacement policy and limited
// associativity, conflict noise included.
func (s *Session) RealCacheCrossCheck() (waVictimsM, coVictimsM int64) {
	s.mark("realcache")
	mkClock := func() *cache.Cache {
		return cache.New(cache.Config{
			SizeBytes: figL3Bytes,
			LineBytes: figLineBytes,
			Assoc:     figAssoc,
			Policy:    cache.PolicyClock3,
		})
	}
	// Non-power-of-two outer dims, as in the paper's 4000 x m x 4000 runs:
	// a power-of-two row stride would alias whole block columns onto a few
	// sets of the small simulated cache (a stride pathology the paper's
	// 24576-set L3 does not exhibit).
	const outer, mid = 250, 128
	c1 := mkClock()
	core.NewMatMulTrace(outer, mid, outer, figLineBytes,
		core.TraceLevel{Block: 48, ContractionInner: true},
		core.TraceLevel{Block: figL2Block, ContractionInner: false},
		core.TraceLevel{Block: figL1Block, ContractionInner: false}).
		Run(c1)
	c1.FlushDirty()
	c2 := mkClock()
	core.NewCOMatMulTrace(outer, mid, outer, figL1Block, figLineBytes).
		Run(c2)
	c2.FlushDirty()
	return c1.Stats().VictimsM, c2.Stats().VictimsM
}

func point(mid int, st cache.Stats, ideal bool) FigPoint {
	pt := FigPoint{
		Mid:      mid,
		VictimsM: st.VictimsM,
		VictimsE: st.VictimsE,
		FillsE:   st.FillsE,
		WriteLB:  int64(figOuter * figOuter * 8 / figLineBytes),
	}
	if ideal {
		pt.IdealMisses = core.IdealCacheMisses(figOuter, mid, figOuter, figL3Bytes, figLineBytes)
	}
	return pt
}

// FormatPanels renders figure panels as aligned text.
func FormatPanels(panels []FigPanel) string {
	var b strings.Builder
	for _, p := range panels {
		fmt.Fprintf(&b, "== %s (lines; outer dims %dx%d, L3 %dKiB fully-assoc LRU)\n",
			p.Name, figOuter, figOuter, figL3Bytes/1024)
		tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "mid\tVICTIMS.M\tVICTIMS.E\tFILLS.E\twriteLB\tideal\t\n")
		for _, pt := range p.Points {
			ideal := "-"
			if pt.IdealMisses > 0 {
				ideal = fmt.Sprint(pt.IdealMisses)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t\n",
				pt.Mid, pt.VictimsM, pt.VictimsE, pt.FillsE, pt.WriteLB, ideal)
		}
		tw.Flush()
		b.WriteString("\n")
	}
	return b.String()
}
